import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_is_correct():
    # Every benchmark workload on tiny grids, untraced and traced: catches a
    # renamed layer function or a changed artifact before a full benchmark run.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert result["failed"] == 0
