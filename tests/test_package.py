import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmaxwell.errors import QmaxwellError
from qmaxwell.measure import MagnitudeEstimate, SignedReading

SRC = Path(__file__).resolve().parents[1] / "src"


def _library_trees():
    for path in sorted((SRC / "qmaxwell").glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_no_assert_statements():
    # ``python -O`` strips asserts; invariants raise typed errors instead.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_cli_main_prints():
    # The library logs through ``logging``; only ``cli.main`` writes to the terminal.
    found = []
    for name, tree in _library_trees():
        allowed = set()
        if name == "cli.py":
            main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
            allowed = {id(n) for n in ast.walk(main)}
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and id(node) not in allowed
        ]
    assert found == []


def test_no_private_names_imported_across_modules():
    # A name with a leading underscore belongs to its module; a sibling that
    # needs it should find it public, or in the module that owns the concept.
    found = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("qmaxwell"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # dunders are public
    ]
    assert found == []


def test_every_error_class_is_raised():
    # An exception type that nothing raises is an outcome no caller can see.
    trees = dict(_library_trees())
    defined = {node.name for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)}
    raised = {
        getattr(exc.func if isinstance(exc, ast.Call) else exc, "id", None)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and (exc := node.exc) is not None
    }
    assert sorted(defined - raised) == []


def test_negative_magnitudes_rejected():
    with pytest.raises(QmaxwellError):
        MagnitudeEstimate(-1.0, 0.0, "exact")
    with pytest.raises(QmaxwellError):
        SignedReading(-1.0, 1, -1.0, "exact")


def test_cli_module_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qmaxwell.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
