import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmaxwell.errors import QmaxwellError
from qmaxwell.measure import MagnitudeEstimate, SignedReading

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements():
    # ``python -O`` strips asserts; invariants raise typed errors instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "qmaxwell").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
