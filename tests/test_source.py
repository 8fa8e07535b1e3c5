"""Checks on the package source itself."""

import ast
import builtins
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
