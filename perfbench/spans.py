"""In-memory span recorder around qmaxwell's layer functions.

Run as a program, it traces one ``qmaxwell`` CLI call in its own process and
writes the spans and counters to a JSON file when the call ends:

    PYTHONPATH=src python3 perfbench/spans.py OUT.json run --scenario 2d-empty ...

Nothing under ``src/`` changes.  Each function in ``LAYER_FUNCTIONS`` is
replaced, in every ``qmaxwell.*`` module that binds it, by a wrapper that
records a span; ``cli`` binds most of them with ``from .x import y``, so
patching the defining module alone would miss its calls.  ``simulate`` is
wrapped rather than ``apply_gate`` so that a span costs one call per step,
not one per gate.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _count_simulate(counts, args, result):
    circuit = args[0]
    gates = len(circuit.gates)
    counts["circuit.gates_applied"] += gates
    # Each gate reads and writes the whole complex128 statevector once.
    counts["circuit.bytes_moved_computed"] += gates * (1 << circuit.n_qubits) * 16 * 2


def _count_blocks(counts, args, result):
    counts["bell.blocks"] += len(result)


def _count_nnz(counts, args, result):
    counts["operators.nnz"] += result.nnz


def _count_lowered(counts, args, result):
    counts["circuit.gates_lowered"] += result["two_qubit_count"] + result["single_qubit_count"]


def _count_step_gates(counts, args, result):
    counts["trotter.gates_per_step"] += len(result.step_circuit.gates)


# (module, attribute, counter hook).  ``Class.method`` names a method.
LAYER_FUNCTIONS = (
    ("operators", "assemble_generator", _count_nnz),
    ("operators", "symmetrizing_weights", None),
    ("operators", "apply_weights", None),
    ("operators", "skew_defect", None),
    ("grid", "pack_initial_condition", None),
    ("lifting", "hermitian_split", None),
    ("lifting", "recovery_bound", None),
    ("lifting", "recover_solution", None),
    ("bell", "compile_blocks", _count_blocks),
    ("trotter", "TrotterRunner.from_generator", _count_step_gates),
    ("trotter", "TrotterRunner.advance", None),
    ("trotter", "emit_trotter_circuit", None),
    ("circuit", "simulate", _count_simulate),
    ("circuit", "gate_stats", _count_lowered),
    ("measure", "pipeline_state", None),
    ("measure", "signed_field_at", None),
    ("measure", "apply_offset", None),
    ("measure", "unit_offset_state", None),
    ("oracle", "exact_evolution", None),
    ("cli", "execute_run", None),
    ("cli", "execute_stats", None),
)

# Counters that must repeat exactly between two traced runs of one workload.
EXACT_COUNTS = (
    "circuit.gates_applied",
    "trotter.gates_per_step",
    "bell.blocks",
    "circuit.gates_lowered",
    "operators.nnz",
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Recorder:
    """Spans as ``[name, start, end, parent]`` rows plus integer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            row = [name, perf_counter(), None, parent]
            self.spans.append(row)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Replace every layer function by its traced wrapper."""
        importlib.import_module("qmaxwell")
        for module, attr, hook in LAYER_FUNCTIONS:
            mod = importlib.import_module(f"qmaxwell.{module}")
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(name, raw.__func__, hook)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, hook))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(name, original, hook)
            for holder in list(sys.modules.values()):
                if holder is None or holder.__name__.split(".")[0] != "qmaxwell":
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)


def percentile_tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no such percentile exists and the maximum
    (percentile 100) is returned.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, and each call's duration.

    Self time is a span's duration minus the durations of its direct
    children; calls nest strictly in the single-threaded CLI.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
        entry["durations"].append(end - start)
    for entry in out.values():
        entry["p50_s"] = statistics.median(entry["durations"])
        entry["tail_pct"], entry["tail_s"] = percentile_tail(entry["durations"])
    return out


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from qmaxwell.cli import main as cli_main

    code = cli_main(cli_argv)
    with open(out_path, "w") as fh:
        json.dump({"exit": code, "spans": recorder.spans, "counts": dict(recorder.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
