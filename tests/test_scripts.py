"""The experiment scripts under scripts/, run through their ``main``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_nonliftability.py"


def _sweep():
    spec = importlib.util.spec_from_file_location("reproduce_nonliftability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_certifies_good_primes(capsys):
    assert _sweep().main(["--primes", "5,7", "--max-N", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok ]") == 12
    assert "12 certificates, 0 failures" in out


@pytest.mark.parametrize(
    "primes,message",
    [
        ("4", "4 is not a prime >= 5"),
        ("3", "3 is not a prime >= 5"),
        ("5,x", "invalid prime_list value: '5,x'"),
        ("", "invalid prime_list value: ''"),
        ("2147483659", "invalid prime_list value: '2147483659'"),  # past trial division
    ],
)
def test_sweep_reports_bad_primes_as_a_usage_error(capsys, primes, message):
    with pytest.raises(SystemExit) as exc:
        _sweep().main(["--primes", primes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --primes: {message}\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "max_n,message",
    [
        ("3", "3 is not in 4..1024"),
        ("-1", "-1 is not in 4..1024"),
        ("1025", "1025 is not in 4..1024"),
        ("x", "invalid max_n value: 'x'"),
        ("4.0", "invalid max_n value: '4.0'"),
    ],
)
def test_sweep_reports_a_max_n_that_checks_nothing_as_a_usage_error(capsys, max_n, message):
    with pytest.raises(SystemExit) as exc:
        _sweep().main(["--primes", "5", f"--max-N={max_n}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --max-N: {message}\n")


def test_sweep_at_the_smallest_max_n_checks_one_certificate_per_prime(capsys):
    assert _sweep().main(["--primes", "5,7", "--max-N", "4"]) == 0
    assert "2 certificates, 0 failures" in capsys.readouterr().out
