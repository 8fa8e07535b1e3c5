"""The experiment scripts under scripts/, run through their ``main``."""

import importlib.util
import signal
import subprocess
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


class _HangingSuite:
    """A stand-in for ``subprocess.Popen`` whose suite never finishes."""

    pid = 4242

    def __init__(self, command, **kwargs):
        assert kwargs["start_new_session"]  # so that its group can be killed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def communicate(self, timeout=None):
        raise subprocess.TimeoutExpired("pytest", timeout)

    def wait(self):
        return -signal.SIGKILL


def test_mutants_kills_a_suite_that_runs_past_its_timeout(monkeypatch, tmp_path):
    mutants = _script("mutants")
    killed = []
    monkeypatch.setattr(mutants.subprocess, "Popen", _HangingSuite)
    monkeypatch.setattr(mutants.os, "killpg", lambda pid, sig: killed.append((pid, sig)))
    status, seconds, failed = mutants.run_suite(tmp_path, timeout=5)
    assert (status, failed) == (None, "timeout")
    assert killed == [(_HangingSuite.pid, signal.SIGKILL)]  # pytest and what its tests started


def test_mutants_counts_a_module_that_fails_to_import_as_a_failure(tmp_path):
    # As the tier-1 command does: a mutant that breaks a module-level datum
    # is killed, and the module is named.
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_values.py").write_text("ALPHA, BETA = ()\n")
    status, _, failed = _script("mutants").run_suite(tmp_path, timeout=120)
    assert (status, failed) == (1, "tests/test_values.py")


def _scripted_mutants(monkeypatch, tmp_path, baseline, outcomes):
    """The mutants script with its suites replaced by the given outcomes.

    ``baseline`` is the unmutated run's (status, seconds); ``outcomes``
    maps each row's name to its mutant run's status.  Returns the module
    and the timeouts the mutant runs were given.
    """
    mutants = _script("mutants")
    row = ("lattice.py", "snippet", "replacement", "why")
    monkeypatch.setattr(mutants, "MUTANTS", (("hangs", *row), ("fails", *row)))
    monkeypatch.setattr(mutants, "EQUIVALENT", (("control", *row),))
    monkeypatch.setattr(mutants, "copy_tree", lambda scratch: tmp_path)
    timeouts = []

    def run_suite(tree, *deselect, timeout):
        assert timeout == mutants.BASELINE_TIMEOUT
        status, seconds = baseline
        return status, seconds, "timeout" if status is None else "?"

    def run_mutant(scratch, module, snippet, replacement, timeout):
        timeouts.append(timeout)
        status = outcomes[names.pop(0)]
        return status, 1.0, {None: "timeout", 0: "?", 1: "tests/test_x.py::test_y"}[status]

    names = ["hangs", "fails", "control"]
    monkeypatch.setattr(mutants, "run_suite", run_suite)
    monkeypatch.setattr(mutants, "run_mutant", run_mutant)
    return mutants, timeouts


@pytest.mark.parametrize("baseline_s, timeout", [(2.0, 60.0), (12.5, 125.0)])
def test_mutants_counts_a_timed_out_mutant_as_killed(
    monkeypatch, tmp_path, capsys, baseline_s, timeout
):
    # Each mutant's bound is ten times the unmutated run's time, at least 60 s.
    mutants, timeouts = _scripted_mutants(
        monkeypatch, tmp_path, (0, baseline_s), {"hangs": None, "fails": 1, "control": 0}
    )
    assert mutants.main() == 0
    out = capsys.readouterr().out
    assert "killed      hangs" in out and "by timeout" in out
    assert "equivalent  control" in out
    assert timeouts == [timeout] * 3


def test_mutants_fails_on_a_control_that_times_out(monkeypatch, tmp_path, capsys):
    mutants, _ = _scripted_mutants(
        monkeypatch, tmp_path, (0, 2.0), {"hangs": None, "fails": 1, "control": None}
    )
    assert mutants.main() == 1
    assert "1 equivalent control(s) killed: control" in capsys.readouterr().out


def test_mutants_fails_when_the_unmutated_suite_times_out(monkeypatch, tmp_path, capsys):
    mutants, timeouts = _scripted_mutants(monkeypatch, tmp_path, (None, 600.0), {})
    assert mutants.main() == 1
    assert timeouts == []
    assert "the unmutated suite ran past 600 s" in capsys.readouterr().err


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
