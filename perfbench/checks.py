"""Independent accuracy reference and output checks for the benchmark's CLI runs.

The reference is ``scipy.sparse.linalg.expm_multiply`` on
``assemble_generator(spec)`` over the workload's step grid, computed in the
benchmark process and outside every timed process.  It deliberately avoids
``qmaxwell.oracle``, so a change to the oracle cannot move its own yardstick.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import expm_multiply

from qmaxwell.grid import Component, FieldLayout, pack_initial_condition
from qmaxwell.operators import assemble_generator, scatterer_frozen_indices
from qmaxwell.scenarios import build_scenario

_SNAPSHOT = re.compile(r"^(\w+?)_T([^_]+?)(?:_(xy|xz|yz)(\d+))?\.csv$")


@dataclass
class Reference:
    """Exact field at every step of one scenario, in the original variables."""

    layout: FieldLayout
    dt: float
    fields: np.ndarray  # (steps + 1, state_len)
    frozen: np.ndarray  # flat indices strictly inside a scatterer body

    def at_time(self, t: float) -> np.ndarray:
        step = round(t / self.dt)
        if abs(step * self.dt - t) > 1e-9 or not 0 <= step < len(self.fields):
            raise ValueError(f"time {t} is not on the reference grid")
        return self.fields[step]

    def plane(self, values: np.ndarray, component: str, plane: str | None, index: int) -> np.ndarray:
        """One component of a flat state as the CLI writes it: 2D grid or 3D midplane."""
        spec = self.layout.spec
        names = [c.value for c in self.layout.components]
        bs = self.layout.block_size
        block = names.index(component)
        arr = values[block * bs:(block + 1) * bs].reshape(spec.nz, spec.ny, spec.nx)
        if plane is None:
            return arr[0]
        if plane == "xy":
            return arr[index]
        if plane == "xz":
            return arr[:, index, :]
        return arr[:, :, index]


def build_reference(scenario: str, nx: int | None, steps: int) -> Reference:
    sc = build_scenario(scenario, nx)
    a = assemble_generator(sc.spec).tocsr()
    u0 = pack_initial_condition(sc.spec, list(sc.impulses)).values
    if steps == 0:
        fields = u0[None, :].copy()
    else:
        fields = expm_multiply(a, u0, start=0.0, stop=steps * sc.dt, num=steps + 1, endpoint=True)
    frozen = scatterer_frozen_indices(sc.spec) if sc.spec.scatterer is not None else np.zeros(0, int)
    return Reference(FieldLayout(sc.spec), sc.dt, np.asarray(fields), frozen)


def _read_csv(path: Path) -> np.ndarray:
    rows = [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()]
    return np.array(rows, dtype=float)


@dataclass
class RunCheck:
    """Outcome of checking one CLI run's output directory.

    ``operations`` counts the verb run plus every expected probe row;
    ``failures`` lists what failed, one entry per failed operation.
    """

    operations: int = 1
    failures: list[str] = field(default_factory=list)
    field_rel_err: float | None = None
    probe_max_err: float | None = None
    bytes_written: int = 0


def check_run(
    outdir: Path,
    exit_code: int,
    ref: Reference,
    steps: int,
    probes: list[str],
    tolerances: dict,
) -> RunCheck:
    """Check a ``run`` verb's artifacts and measure its error against ``ref``."""
    check = RunCheck(operations=1 + len(probes) * (steps + 1))
    if exit_code != 0:
        check.failures.append(f"exit code {exit_code}")
        check.failures += ["missing probe row"] * (check.operations - 1)
        return check
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        check.failures.append(f"manifest unreadable: {e}")
        return check
    verb_problems = []
    snapshots: dict[float, list[tuple[str, str | None, int, np.ndarray]]] = {}
    for name in manifest["artifacts"]:
        path = outdir / name
        if not path.is_file():
            verb_problems.append(f"artifact {name} missing")
            continue
        if name == "probes.csv":
            continue
        m = _SNAPSHOT.match(name)
        if m is None:
            verb_problems.append(f"artifact {name} not recognised")
            continue
        arr = _read_csv(path)
        if not np.all(np.isfinite(arr)):
            verb_problems.append(f"artifact {name} not finite")
            continue
        comp, t, plane, idx = m.group(1), float(m.group(2)), m.group(3), int(m.group(4) or 0)
        snapshots.setdefault(t, []).append((comp, plane, idx, arr))
    verb_problems += _body_problems(snapshots, ref)
    if snapshots:
        t_last = max(snapshots)
        exact = ref.at_time(t_last)
        diff = sq = 0.0
        for comp, plane, idx, arr in snapshots[t_last]:
            want = ref.plane(exact, comp, plane, idx)
            diff += float(np.sum((arr - want) ** 2))
            sq += float(np.sum(want**2))
        check.field_rel_err = math.sqrt(diff / sq)
        if check.field_rel_err > tolerances["field_rel_err"]:
            verb_problems.append(
                f"field_rel_err {check.field_rel_err:.4g} above {tolerances['field_rel_err']:.4g}"
            )
    if probes:
        probe_err, row_failures = _check_probes(outdir, ref, steps, probes)
        check.failures += row_failures
        check.probe_max_err = probe_err
        if probe_err is not None and probe_err > tolerances["probe_max_err"]:
            verb_problems.append(f"probe_max_err {probe_err:.4g} above {tolerances['probe_max_err']:.4g}")
    if verb_problems:
        check.failures.append("; ".join(verb_problems))
    check.bytes_written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return check


def _body_problems(snapshots, ref: Reference) -> list[str]:
    """Every snapshot sample strictly inside a scatterer body must be exactly zero."""
    if ref.frozen.size == 0:
        return []
    spec = ref.layout.spec
    names = [c.value for c in ref.layout.components]
    bs = ref.layout.block_size
    blocks = ref.frozen // bs
    rem = ref.frozen % bs
    j, i = (rem // spec.nx) % spec.ny, rem % spec.nx
    problems = []
    for t, files in snapshots.items():
        for comp, _plane, _idx, arr in files:
            sel = blocks == names.index(comp)
            if np.any(arr[j[sel], i[sel]] != 0.0):
                problems.append(f"{comp} at T={t:g} nonzero inside the scatterer")
    return problems


def _check_probes(outdir: Path, ref: Reference, steps: int, probes: list[str]):
    """Largest probe error, and one failure per missing or non-finite row."""
    expected = {(s, p) for s in range(steps + 1) for p in probes}
    path = outdir / "probes.csv"
    if not path.is_file():
        return None, ["missing probe row"] * len(expected)
    failures = []
    worst = 0.0
    for line in path.read_text().splitlines()[1:]:
        t, comp, i, j, k, value = line.split(",")[:6]
        step = round(float(t) / ref.dt)
        key = (step, f"{comp}:{i}:{j}")
        if key not in expected:
            failures.append(f"unexpected probe row {line}")
            continue
        expected.discard(key)
        v = float(value)
        if not math.isfinite(v):
            failures.append(f"probe {key} reads {value}")
            continue
        flat = ref.layout.flat_index(Component(comp), int(i), int(j), int(k))
        worst = max(worst, abs(v - ref.at_time(float(t))[flat]))
    failures += [f"probe row {key} missing" for key in sorted(expected)]
    return worst, failures


def check_stats(outdir: Path, exit_code: int, expected: Path) -> RunCheck:
    """``stats`` output must equal the recorded ``gate_stats.json`` byte for byte."""
    check = RunCheck()
    if exit_code != 0:
        check.failures.append(f"exit code {exit_code}")
        return check
    got = outdir / "gate_stats.json"
    if not got.is_file():
        check.failures.append("gate_stats.json missing")
    elif got.read_bytes() != expected.read_bytes():
        check.failures.append(f"gate_stats.json differs from {expected.name}")
    else:
        check.bytes_written = got.stat().st_size
    return check
