#!/usr/bin/env python3
"""Mutation check for the checks a non-liftability certificate leans on.

Each row of ``MUTANTS`` removes or weakens one runtime check of the
certificate path by replacing an exact source snippet.  For each row the
script copies the tree to a temporary directory, applies the row there
and runs the tier-1 suite with ``-x``.  A mutant is killed when a test
fails, and the script prints the first failing test; one that passes the
whole suite survives, and the script exits 1 naming it.  The unmutated
copy must pass first, so a failing suite does not read as killed
mutants.  Standard library only; the suite itself needs pytest and
hypothesis.

Each suite runs under a time bound.  The unmutated one has
``BASELINE_TIMEOUT`` seconds, and the script exits 1 if it takes longer;
each mutant's suite then has ten times the unmutated run's time, at
least 60 seconds.  A mutant whose suite passes its bound is killed, by
``timeout``: it made the suite hang.  A control that times out counts as
killed, so the script exits 1.

In a mutant copy the suite runs without ``SNIPPET_TEST``, which counts
each row's snippet in the copy's own source and so fails wherever a row
has been applied: a mutant must be killed by a test of behaviour.

A refactor that moves a check updates its row, as it would any test.
``EQUIVALENT`` lists mutants that cannot be killed, each with its
reason.  They run as controls that must survive: a killed control means
that its reason is wrong, or that a test fails for a reason other than
behaviour, and the script exits 1.

Example (from the root of a checkout; about 6.5 minutes on 2 vCPUs):
    python scripts/mutants.py
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "charpflag"
SNIPPET_TEST = "tests/test_scripts.py::test_every_mutant_snippet_occurs_once_in_src"
BASELINE_TIMEOUT = 600  # seconds; the unmutated suite takes about 29 on 2 vCPUs

# (name, module, exact snippet, replacement, the check it removes)
MUTANTS = (
    (
        "soundness-guard",
        "certificate.py",
        'if any(row.h1.status == "undetermined" for row in self.rows):',
        "if False:",
        "an undetermined H^1 row makes the verdict inconclusive",
    ),
    (
        "condition-i",
        "certificate.py",
        "holds=False,",
        "holds=True,",
        "condition (i): no off-diagonal End weight is dominant",
    ),
    (
        "condition-ii",
        "certificate.py",
        "holds=aggregate in (FiltrationH1.ZERO, FiltrationH1.TRIVIAL_MODULE),",
        "holds=True,",
        "condition (ii): H^1(X, End) aggregates to zero or a trivial module",
    ),
    (
        "fast-path-fallback",
        "certificate.py",
        "if unexpected <= d:",
        "if False:",
        "a certificate with an unexpected dominance fact in its corner scans its rows",
    ),
    (
        "table-kind-2",
        "certificate.py",
        "if kind and corner < corners[kind]:",
        "if kind == 1 and corner < corners[kind]:",
        "a row table notes its least corner with a nonzero or undetermined H^1",
    ),
    (
        "h1-kind-trivial",
        "cohomology.py",
        'trivial = status == "nonzero" and highest_weight is not None and highest_weight.is_zero()',
        'trivial = status == "nonzero"',
        "only a nonzero H^1 with largest weight zero is a trivial module",
    ),
    (
        "h1-shortcut-always",
        "cohomology.py",
        "if covered < negatives:",
        "if True:",
        "only a root whose Cartan column misses a negative label of mu skips to zero",
    ),
    (
        "h1-shortcut-never",
        "cohomology.py",
        "if covered < negatives:",
        "if False:",
        "a root whose Cartan column misses a negative label of mu skips its digit analysis",
    ),
    (
        "condition-iii",
        "certificate.py",
        "conditions = (self.condition_i, self.condition_ii, self.condition_iii)",
        "conditions = (self.condition_i, self.condition_ii)",
        "condition (iii) takes part in the verdict",
    ),
    (
        "rigidity-mod-p-squared",
        "certificate.py",
        "procedure(gl, RingChar.prime_power(p, 2))",
        "RigidityVerdict(lift_possible=False)",
        "the Frobenius rigidity verdict over length-two Witt vectors",
    ),
    (
        "rigidity-char-zero",
        "certificate.py",
        "procedure(gl, RingChar.zero(), p=p)",
        "RigidityVerdict(lift_possible=False)",
        "the Frobenius rigidity verdict over characteristic zero",
    ),
    (
        "rigidity-memo-key",
        "certificate.py",
        "cond_i = _non_dominant(d * d - d)\n"
        "    verdicts = _rigidity_verdicts(frobenius_rigidity_verdict, d, p)",
        "cond_i = _non_dominant(d * d - d)\n"
        "    verdicts = _rigidity_verdicts(RigidityVerdict.__init__.__globals__"
        '["frobenius_rigidity_verdict"], d, p)',
        "a substituted rigidity procedure is not answered from another's verdicts",
    ),
    (
        "rigidity-memo-bound",
        "certificate.py",
        "maxsize=1 << 10",
        "maxsize=None",
        "the rigidity memo drops its least recently used verdicts past its bound",
    ),
    (
        "p-at-least-5",
        "certificate.py",
        "if p < 5:",
        "if p < 3:",
        "a certificate needs p >= 5",
    ),
    (
        "grassmannian-range",
        "bundles.py",
        "if not 2 <= d <= n - 2:",
        "if not 1 <= d <= n - 1:",
        "2 <= d <= N - 2",
    ),
    (
        "d-bound",
        "certificate.py",
        "if d > DENSE_LISTING_MAX:",
        "if False:",
        "a certificate's d is at most DENSE_LISTING_MAX",
    ),
    (
        "row-shape",
        "certificate.py",
        "if len(support) != 2 or x + coords[b] or (x != p and x != -p):",
        "if False:",
        "a classified weight has the shape p(l_i - l_j)",
    ),
    (
        "upper-far-root",
        "certificate.py",
        "if j >= datum.rank:",
        "if False:",
        "the simple root l_j - l_{j+1} of an upper far row exists",
    ),
    (
        "closed-form",
        "certificate.py",
        "if value != expected:",
        "if False:",
        "a row's pairing equals its closed form",
    ),
    (
        "row-count",
        "certificate.py",
        "if len(keys) != d * d:",
        "if False:",
        "a certificate classifies d*d End weights",
    ),
    (
        "memo-key-procedure",
        "certificate.py",
        "key = (andersen_h1, datum, p)",
        "key = (None, datum, p)",
        "a substituted H^1 procedure is not answered from another's row table",
    ),
    (
        "memo-bound",
        "certificate.py",
        "while _row_memo_size > _ROW_MEMO_MAX:",
        "while False:",
        "the least recently used row tables are dropped past the memo's bound",
    ),
    (
        "memo-oversized-table",
        "certificate.py",
        "if not count or count > _ROW_MEMO_MAX:",
        "if not count:",
        "a row table that alone passes the memo's bound is not kept",
    ),
    (
        "memo-lock",
        "certificate.py",
        "with _row_lock:",
        "if True:",
        "one thread at a time reads and changes the row tables",
    ),
    (
        "row-fact-dominance",
        "certificate.py",
        "None if weight.is_zero() else is_dominant(weight)",
        "None if weight.is_zero() else False",
        "condition (i) reads each row's own dominance, set from its weight",
    ),
    (
        "q-positive",
        "rootmorph.py",
        "if q < 1:",
        "if False:",
        "a morphism's multiplier q < 1 is a q_positive failure",
    ),
    (
        "root-count",
        "rootmorph.py",
        "if n_source != n_target:",
        "if False:",
        "a d_map between data with different root counts is rejected",
    ),
    (
        "repeated-image",
        "rootmorph.py",
        "if image in images:",
        "if False:",
        "a d_map that hits a target root twice is rejected",
    ),
    (
        "integer-h",
        "rootmorph.py",
        "if type(c) is not int:\n                raise DomainError(f\"h entry",
        "if False:\n                raise DomainError(f\"h entry",
        "every entry of a morphism's h is an int",
    ),
    (
        "ring-kind",
        "rootmorph.py",
        'if kind not in ("zero", "prime", "prime_power"):',
        "if False:",
        "a ring's kind is zero, prime or prime_power",
    ),
    (
        "ring-zero-takes-no-prime",
        "rootmorph.py",
        'if kind == "zero" and p is not None:',
        "if False:",
        "a characteristic-zero ring takes no prime",
    ),
    (
        "ring-takes-no-exponent",
        "rootmorph.py",
        'if kind != "prime_power" and n is not None:',
        "if False:",
        "only a prime_power ring takes an exponent",
    ),
    (
        "ring-integer-exponent",
        "rootmorph.py",
        "if type(n) is not int:",
        "if False:",
        "a prime_power exponent is an int",
    ),
    (
        "ring-exponent-at-least-2",
        "rootmorph.py",
        "if n < 2:",
        "if False:",
        "a prime_power exponent is at least 2",
    ),
    (
        "nonzero-h1-dominant",
        "cohomology.py",
        "if not is_dominant(highest_weight):",
        "if False:",
        "the largest weight of a nonzero H^1 is dominant",
    ),
    (
        "pairing-datum",
        "lattice.py",
        "if alpha.datum is not datum:",
        "if False:",
        "pairing takes a weight and a root of one datum",
    ),
    (
        "weight-sub-datum",
        "lattice.py",
        "if other.datum is not self.datum:\n"
        "            raise _mismatch(self, other)\n"
        "        return _trusted_weight(tuple(map(sub,",
        "if False:\n"
        "            raise _mismatch(self, other)\n"
        "        return _trusted_weight(tuple(map(sub,",
        "a difference of weights takes two weights of one datum",
    ),
    (
        "family-fast-path",
        "lattice.py",
        "family in _CANONICAL_FAMILIES",
        "True",
        "only a canonical family name skips the folding of its name",
    ),
    (
        "pairing-denominator",
        "lattice.py",
        "if pairing_denominator < 1:",
        "if False:",
        "a datum's pairing denominator is at least 1",
    ),
    (
        "custom-datum-coords",
        "lattice.py",
        "        _check_coords(coords, rank, name)\n        return tuple((i, c)",
        "        return tuple((i, c)",
        "a custom datum's roots and coroots are points of Z^rank",
    ),
    (
        "custom-simple-positive",
        "lattice.py",
        "if sup not in coroot_of:",
        "if False:",
        "a custom datum's simple roots are among its positive roots",
    ),
    (
        "custom-simple-repeated",
        "lattice.py",
        "if sup in simples:",
        "if False:",
        "a custom datum lists no simple root twice",
    ),
    (
        "chain-one-short",
        "lattice.py",
        "for k in range(len(supports), n - 1))",
        "for k in range(len(supports), n - 2))",
        "the shared chain holds every simple l_k - l_{k+1} of the largest datum built",
    ),
    (
        "index-table-custom-guard",
        "lattice.py",
        'if family != "custom":\n            # A classical',
        "if True:\n            # A classical",
        "a custom datum's coroot-index entries stay out of the shared table",
    ),
    (
        "mat-vec-last-coordinate",
        "rootmorph.py",
        "for j in compress(range(len(vec)), vec):",
        "for j in compress(range(len(vec) - 1), vec):",
        "a morphism's h is applied to every nonzero coordinate of a root or coroot",
    ),
    (
        "ring-zero",
        "cli.py",
        'if s == "zero":',
        "if False:",
        "--ring zero is characteristic zero",
    ),
    (
        "ring-prime-power",
        "cli.py",
        "if split is None:",
        "if False:",
        "--ring 12 is refused: a ring characteristic is 0 or a prime power",
    ),
    (
        "malformed-datum-handler",
        "cli.py",
        "except (KeyError, TypeError) as exc:",
        "except () as exc:",
        "a malformed custom datum description is a usage error",
    ),
)

# (name, module, exact snippet, replacement, why no test can kill it)
EQUIVALENT = (
    (
        "andersen-tail-raise",
        "cohomology.py",
        "    raise InternalInconsistencyError(\n"
        '        f"dominant tail weight not found for {mu!r} though nu_n was dominant"\n'
        "    )",
        "    return None",
        "unreachable: the tail loop's last weight, j = n, is nu_n, which the function "
        "has just found dominant, so the loop always returns; the raise stays as a guard",
    ),
)


def apply(tree: Path, module: str, snippet: str, replacement: str) -> None:
    """Replace the one occurrence of ``snippet`` in the tree's copy of ``module``."""
    path = tree / PACKAGE / module
    source = path.read_text()
    count = source.count(snippet)
    if count != 1:
        raise SystemExit(f"error: snippet occurs {count} times in {module}: {snippet!r}")
    mutated = source.replace(snippet, replacement)
    compile(mutated, str(path), "exec")  # a mutant must still be Python
    path.write_text(mutated)


def run_suite(tree: Path, *deselect: str, timeout: float) -> tuple[int | None, float, str]:
    """Tier-1 on ``tree`` with ``-x``: (pytest's exit status, seconds, first failing test).

    The first failing test is a test id, or the path of a test module that
    failed to import.

    A suite still running after ``timeout`` seconds is killed, with every
    process it started, and reads (None, seconds, "timeout").
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"]
    # As in the tier-1 command: a test module that fails to import is a
    # failure, so a mutant that breaks a module-level datum is killed.
    command.append("--continue-on-collection-errors")
    command += [f"--deselect={node}" for node in deselect]
    start = time.perf_counter()
    with subprocess.Popen(
        command,
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,  # its own process group, killed whole on a timeout
    ) as proc:
        try:
            stdout = proc.communicate(timeout=timeout)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None, time.perf_counter() - start, "timeout"
    failed = [
        line.split()[1] for line in stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))
    ]
    return proc.returncode, time.perf_counter() - start, failed[0] if failed else "?"


def copy_tree(scratch: Path) -> Path:
    tree = Path(tempfile.mkdtemp(dir=scratch)) / "tree"
    shutil.copytree(
        ROOT,
        tree,
        ignore=shutil.ignore_patterns(
            ".git", ".bench_build", "__pycache__", ".pytest_cache", ".hypothesis"
        ),
    )
    return tree


def run_mutant(scratch: Path, module: str, snippet: str, replacement: str, timeout: float):
    """``run_suite`` on a copy of the tree with one row applied."""
    tree = copy_tree(scratch)
    apply(tree, module, snippet, replacement)
    try:
        return run_suite(tree, SNIPPET_TEST, timeout=timeout)
    finally:
        shutil.rmtree(tree.parent)


def main() -> int:
    survivors, killed_controls = [], []
    with tempfile.TemporaryDirectory(prefix="charpflag-mutants-") as scratch:
        status, seconds, _ = run_suite(copy_tree(Path(scratch)), timeout=BASELINE_TIMEOUT)
        if status is None:
            print(f"error: the unmutated suite ran past {BASELINE_TIMEOUT} s", file=sys.stderr)
            return 1
        if status != 0:
            print(f"error: the unmutated suite exits {status}", file=sys.stderr)
            return 2
        print(f"unmutated   ok       {seconds:5.1f} s")
        timeout = max(60.0, 10 * seconds)
        for rows, control in ((MUTANTS, False), (EQUIVALENT, True)):
            for name, module, snippet, replacement, why in rows:
                status, seconds, failed = run_mutant(
                    Path(scratch), module, snippet, replacement, timeout
                )
                if status not in (None, 0, 1):
                    print(f"error: pytest exits {status} on mutant {name}", file=sys.stderr)
                    return 2
                killed = status != 0  # a failing test, or a suite that timed out
                if killed == control:  # a surviving mutant or a killed control
                    (killed_controls if control else survivors).append(name)
                if control:
                    label = "KILLED" if killed else "equivalent"
                else:
                    label = "killed" if killed else "SURVIVED"
                print(f"{label:11} {name:24} {seconds:5.1f} s  {why}")
                if killed:
                    print(f"{'':11} by {failed}")
    if killed_controls:
        print(f"{len(killed_controls)} equivalent control(s) killed: {', '.join(killed_controls)}")
    if survivors:
        print(f"{len(survivors)} mutant(s) survived tier-1: {', '.join(survivors)}")
    if survivors or killed_controls:
        return 1
    print(f"all {len(MUTANTS)} mutants killed; {len(EQUIVALENT)} equivalent control(s) survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
