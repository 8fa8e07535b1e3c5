"""The experiment scripts under scripts/, run through their ``main``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep():
    return _script("reproduce_nonliftability")


def test_every_mutant_snippet_occurs_once_in_src():
    # A refactor that moves a check must move its mutation row with it.
    mutants = _script("mutants")
    sources = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    for name, module, snippet, replacement, _ in mutants.MUTANTS + mutants.EQUIVALENT:
        found = [path.name for path, text in sources.items() for _ in range(text.count(snippet))]
        assert found == [module], name
        assert replacement != snippet, name


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


def test_sweep_rejects_a_max_n_past_the_certificate_bound_before_any_work(capsys):
    # N = 67 would reach d = 65 > DENSE_LISTING_MAX after sweeping every smaller N.
    with pytest.raises(SystemExit) as exc:
        _sweep().main(["--primes", "5", "--max-N", "67"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --max-N: 67 exceeds 66: a certificate takes d <= 64\n"
    )
    assert "Traceback" not in captured.err


def test_sweep_parses_the_largest_max_n():
    assert _sweep().parse_args(["--max-N", "66"]).max_n == 66
