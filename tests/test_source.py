"""Checks on the package source itself."""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import charpflag


def _package_nodes():
    for path in sorted(Path(charpflag.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check that a result leans on
    # must raise a typed error instead.
    found = [
        f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_export_exists_once():
    assert len(set(charpflag.__all__)) == len(charpflag.__all__)
    assert [name for name in charpflag.__all__ if not hasattr(charpflag, name)] == []


def test_star_import_in_a_fresh_namespace():
    namespace = {}
    exec("from charpflag import *", namespace)
    assert set(charpflag.__all__) <= set(namespace)


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_package_raises_no_builtin_exceptions():
    # Errors are CharpFlagError subclasses, so a caller (and the CLI) can
    # tell a library error from a bug.  SystemExit at the entry points is
    # not an Exception subclass and stays allowed.
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            cls = getattr(builtins, _raised_name(node) or "", None)
            if isinstance(cls, type) and issubclass(cls, Exception):
                found.append(f"{name}:{node.lineno} raises {cls.__name__}")
    assert found == []


def _run_traced(snippet):
    """Run ``snippet`` in a fresh interpreter after the benchmark tracer is installed."""
    # perfbench/tracer.py wraps package functions by name; a fresh
    # interpreter shows whether the names it binds still exist.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "from tracer import Tracer\n"
        "tracer = Tracer(); tracer.install()\n" + snippet
    )
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_the_benchmark_tracer_still_binds_weyl_group():
    stdout = _run_traced(
        "from charpflag import make_datum, weyl_group\n"
        "weyl_group(make_datum('GL', 3))\n"
        "print(tracer.calls['lattice.weyl_group'])\n"
    )
    assert stdout == "1\n"


def test_the_benchmark_tracer_sees_every_certificate_row():
    # The benchmark's layer map: each of the 7 distinct rows among the d^2
    # (one diagonal, 2 adjacent, 4 far) is classified, with its H^1 decided,
    # through the traced names, and labels come from pairing.
    stdout = _run_traced(
        "from charpflag import check_equivariant_smoothness\n"
        "check_equivariant_smoothness(3, 6, 5)\n"
        "calls = tracer.calls\n"
        "print(calls['certificate.classify_weight'], calls['cohomology.andersen_h1'],"
        " calls['lattice.pairing'], tracer.counters['bundles.weights_built'])\n"
    )
    classified, decided, pairings, built = map(int, stdout.split())
    assert (classified, decided) == (7, 7)
    assert pairings > 0
    # The row order, read once per d: S, End(S) and its filtration on
    # Gr(3, 5), 3 + 9 + 9 weights.
    assert built == 21


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses, and the inspect, ast, dis and tokenize it loads, would
    # cost every process start several milliseconds.  The baseline is the
    # standard library the package imports, as loaded by this interpreter.
    unwanted = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    stdlib = set()
    for _, node in _package_nodes():
        if isinstance(node, ast.Import):
            stdlib.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            stdlib.add(node.module)
    stdlib.difference_update(unwanted)
    code = (
        "import sys\n"
        f"for name in {sorted(stdlib)!r}: __import__(name)\n"
        "before = set(sys.modules)\n"
        "import charpflag.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    added = proc.stdout.split()
    assert "charpflag.cli" in added
    assert [name for name in unwanted if name in added] == []
