"""Scenario runner and data emitter.

Verbs: ``run`` (snapshots, probe traces, manifest), ``compare`` (diff two
runs), ``table`` (splitting-error table), ``stats`` (gate counts).  All
tabular output is CSV with a one-line header, ``.`` decimal, no locale;
floats are written with ``repr`` so identical configs and seeds give
byte-identical files.  Exit codes: 0 ok, 2 bad configuration, 3 numerically
infeasible recovery.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .circuit import gate_stats
from .errors import ConfigError, GridError, QmaxwellError, RecoveryInfeasibleError
from .grid import FieldLayout, FieldState, component_name, pack_initial_condition, qubit_count
from .lifting import RECOVERY_MODES, LiftedExactRunner, PRegister, hermitian_split
from .measure import (
    EXACT,
    ProbeRequest,
    SignedReading,
    apply_offset,
    pipeline_state,
    remove_offset,
    signed_field_at,
    unit_offset_state,
)
from .operators import assemble_generator, skew_defect, symmetrizing_weights
from .oracle import DIMENSION_CAP, PLANES, OracleRunner, grid_step, snapshot, trotter_error_table
from .scenarios import SCENARIO_NAMES, build_scenario
from .trotter import TrotterRunner, emit_trotter_circuit

# JSON values are untyped, unlike flags: per field, a type check and what it wants.
# Reals must also be finite, which covers NaN and infinity given as flags.
_INT = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_REAL = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
         "a finite number")
_FIELD_TYPES = {
    **dict.fromkeys(("nx", "ny", "nz", "steps", "n_a", "probe_every", "shots", "seed"), _INT),
    **dict.fromkeys(("dt", "p_min", "p_max", "offset_c"), _REAL),
    "weighted": (lambda v: isinstance(v, bool), "true or false"),
    "probes": (lambda v: isinstance(v, list), "a list"),
    "snapshot_times": (lambda v: isinstance(v, list) and all(map(_REAL[0], v)), "a list of finite numbers"),
    **dict.fromkeys(("scenario", "outdir"), (lambda v: isinstance(v, str), "a string")),
    "backend": (lambda v: isinstance(v, str) and v in BACKENDS, "a known backend"),
}


@dataclass
class RunConfig:
    scenario: str = "2d-empty"
    nx: int | None = None
    ny: int | None = None
    nz: int | None = None
    dt: float | None = None
    steps: int | None = None
    n_a: int = 1
    p_min: float = -np.pi
    p_max: float = np.pi
    offset_c: float = 1.0
    backend: str = "circuit"
    probes: list = field(default_factory=list)
    probe_every: int = 1
    snapshot_times: list | None = None
    outdir: str | None = None
    shots: int | None = None
    seed: int = 0
    weighted: bool = True
    recovery_mode: str = "single"

    def validate(self):
        """Check every setting; returns ``self``.

        The scenario (``built_scenario``), its initial field ``u0`` and the
        auxiliary ``register`` are built here, once.  The grid's qubits, then
        those plus ``n_a``, are checked against ``DIMENSION_CAP`` by arithmetic
        before the field or the register's ``2**n_a`` points are allocated.
        """
        for name, (check, wanted) in _FIELD_TYPES.items():
            value = getattr(self, name)  # a field whose default is None may be None
            if not check(value) and not (value is None and self.__dataclass_fields__[name].default is None):
                raise ConfigError(f"{name} must be {wanted}, not {value!r}")
        cap = DIMENSION_CAP.bit_length() - 1
        try:
            self.built_scenario = build_scenario(self.scenario, self.nx, self.ny, self.nz)
            n_sys = qubit_count(self.built_scenario.spec)
            if n_sys > cap:
                raise GridError(f"{n_sys} qubits exceed the cap of {DIMENSION_CAP}")
            # Small grids can put the scenario's impulse on a pad slot.
            self.u0 = pack_initial_condition(self.built_scenario.spec, list(self.built_scenario.impulses))
        except GridError as e:
            raise ConfigError(f"bad grid: {e}") from e
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.steps is not None and self.steps < 0:
            raise ConfigError("steps must be nonnegative")
        if self.offset_c <= 0:
            raise ConfigError("offset must be positive")
        if self.probe_every < 1:
            raise ConfigError("probe_every must be at least 1")
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        try:
            if n_sys + self.n_a > cap:
                raise ValueError(f"{n_sys} grid plus {self.n_a} auxiliary qubits exceed the cap of {DIMENSION_CAP}")
            self.register = PRegister(self.n_a, self.p_min, self.p_max, self.recovery_mode)
        except ValueError as e:
            raise ConfigError(f"bad auxiliary register: {e}") from e
        return self

    def resolved(self, name: str):
        """Setting ``name`` (``dt``, ``steps`` or ``snapshot_times``), the scenario's where unset."""
        value = getattr(self, name)
        return getattr(self.built_scenario, name) if value is None else value


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """JSON config file with flag overrides; flags win."""
    data = {}
    if path:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data).validate()


def _parse_probes(items, layout: FieldLayout) -> list[ProbeRequest]:
    """Probe requests from ``comp:i:j[:k]`` specs (or JSON lists), each checked against ``layout``.

    A JSON index must be an integer, not a float or a bool.  A pad slot is
    refused: it is no sample of the field and reads 0 forever.
    """
    out = []
    for item in items:
        parts = item.split(":") if isinstance(item, str) else item
        if not isinstance(parts, (list, tuple)) or len(parts) not in (3, 4):
            raise ConfigError(f"probe {item!r} must be comp:i:j[:k]")
        try:
            idx = [int(p) if isinstance(item, str) else p for p in parts[1:]] + [0] * (4 - len(parts))
            if not all(map(_INT[0], idx)):
                raise TypeError("indices must be integers")
            probe = ProbeRequest(component_name(str(parts[0])), *idx)
            layout.flat_index(probe.component, *idx)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad probe {item!r}: {e}") from e
        if layout.classify(probe.component, *idx).pad:
            raise ConfigError(f"probe {item!r} is a pad slot")
        out.append(probe)
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_grid_csv(path: Path, array: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in array:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _snapshot_files(outdir: Path, state: FieldState, time: float) -> list[str]:
    """One CSV per component and cut: the whole grid in 2D, each mid-plane in 3D."""
    spec = state.layout.spec
    mids = {plane: spec.shape[::-1][axis] // 2 for plane, axis in PLANES.items()}  # (nz, ny, nx)
    cuts = {f"_{p}{i}": (p, i) for p, i in mids.items()} if spec.dim == 3 else {"": ("xy", 0)}
    files = []
    for comp in state.layout.components:
        for suffix, (plane, idx) in cuts.items():
            name = f"{comp.value}_T{time:g}{suffix}.csv"
            _write_grid_csv(outdir / name, snapshot(state, comp, plane, idx))
            files.append(name)
    return files


class _ProbeWriter:
    """``probes.csv``: one row per probe and probe instant."""

    HEADER = "time,component,i,j,k,value,magnitude,sign,shots\n"

    def __init__(self, path: Path, probes: list[ProbeRequest]):
        self.probes = probes
        self.fh = open(path, "w")
        self.fh.write(self.HEADER)

    def close(self):
        self.fh.close()

    def rows(self, time, readings):
        """One row per probe, from its reading; an indeterminate sign gives value=nan, sign=0."""
        for p, r in zip(self.probes, readings):
            self.fh.write(
                f"{_fmt(time)},{p.component.value},{p.i},{p.j},{p.k},"
                f"{_fmt(r.value)},{_fmt(r.magnitude)},{r.sign},{r.shots_used}\n"
            )


def _resolve_outdir(config: RunConfig) -> Path:
    if config.outdir:
        out = Path(config.outdir)
    else:
        root = os.environ.get("QMAXWELL_OUTPUT_ROOT", "runs")
        out = Path(root) / config.scenario
    out.mkdir(parents=True, exist_ok=True)
    return out


def _weights(config: RunConfig) -> np.ndarray | None:
    return symmetrizing_weights(config.built_scenario.spec) if config.weighted else None


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# Each backend takes the validated config, the generator and the step size, and returns
# its step runner, the runner's recovered field at its time, a probe reader (probes ->
# readings) or None to read probes off that field, and its own manifest entries.


def _oracle_backend(config, a, dt):
    runner = OracleRunner(a, config.u0, dt)
    return runner, runner.recover, None, {}


def _lifted_exact_backend(config, a, dt):
    pair = hermitian_split(a, _weights(config))
    runner = LiftedExactRunner(pair, config.u0, config.register, dt)
    entries = {"skew_defect_used": skew_defect((pair.h1 + 1j * pair.h2).real)}
    return runner, runner.recover, None, entries


def _circuit_backend(config, a, dt):
    """Trotter runner; with probes it evolves ``u0 + c * unit offset`` and an oracle evolves the offset."""
    scenario, u0, c = config.built_scenario, config.u0, config.offset_c
    reference = ProbeRequest(scenario.impulses[0][0], *scenario.center)
    sim_u0 = apply_offset(u0, reference.component, c) if config.probes else u0
    runner = TrotterRunner.from_generator(a, sim_u0, config.register, dt, _weights(config))
    h1_blocks, h2_blocks = runner.pair.blocks
    entries = {
        "blocks_per_step": {"skew_part": len(h2_blocks), "symmetric_part": len(h1_blocks)},
        "gate_stats_per_step": gate_stats(runner.step_circuit),
    }
    if not config.probes:
        return runner, runner.recover, None, entries
    response = OracleRunner(a, unit_offset_state(u0.layout, reference.component), dt)
    rng = np.random.default_rng(config.seed)

    def offset_response() -> FieldState:
        response.advance(runner.steps_done - response.steps_done)
        return response.recover()

    def read(probes):
        pipe = pipeline_state(runner, c, offset_response(), reference)
        return [signed_field_at(p, pipe, config.shots, rng) for p in probes]

    return runner, lambda: remove_offset(runner.recover(), c, offset_response()), read, entries


BACKENDS = {
    "oracle": _oracle_backend,
    "lifted-exact": _lifted_exact_backend,
    "circuit": _circuit_backend,
}


def execute_run(config: RunConfig) -> dict:
    """Run one scenario and write its artifacts; returns the manifest.

    One loop drives every backend's step runner to each step with a snapshot
    or probe row, writes snapshots from the recovered field and reads probes.
    """
    scenario = config.built_scenario
    spec = scenario.spec
    dt, steps, snap_times = map(config.resolved, ("dt", "steps", "snapshot_times"))
    snap_steps = {grid_step(t, dt) for t in snap_times if t <= steps * dt + 1e-9}
    probes = _parse_probes(config.probes, FieldLayout(spec))
    probe_steps = set(range(0, steps + 1, config.probe_every)) if probes else set()
    outdir = _resolve_outdir(config)

    a = assemble_generator(spec)
    manifest = {
        "scenario": scenario.name,
        "config": asdict(config),
        "dt": dt,
        "steps": steps,
        "seed": config.seed,
        "versions": {
            "qmaxwell": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "grid": {"nx": spec.nx, "ny": spec.ny, "nz": spec.nz, "dim": spec.dim},
        "system_qubits": qubit_count(spec),
        "ancilla_qubits": config.n_a,
        "skew_defect": skew_defect(a),
        "artifacts": [],
    }
    runner, recover, read, entries = BACKENDS[config.backend](config, a, dt)
    manifest.update(entries)

    snapshots_written = []
    with closing(_ProbeWriter(outdir / "probes.csv", probes)) if probes else nullcontext() as writer:
        for s in sorted(snap_steps | probe_steps):
            runner.advance(s - runner.steps_done)
            if s in snap_steps:
                snapshots_written += _snapshot_files(outdir, recover(), runner.time)
            if s in probe_steps:
                if read is None:
                    field = recover()
                    readings = [
                        SignedReading.decided(field.at(p.component, p.i, p.j, p.k), EXACT)
                        for p in probes
                    ]
                else:
                    readings = read(probes)
                writer.rows(runner.time, readings)
    if probes:
        manifest["artifacts"].append("probes.csv")
    manifest["artifacts"].extend(sorted(set(snapshots_written)))
    _write_json(outdir / "manifest.json", manifest)
    return manifest


def execute_table(config: RunConfig, dts, times) -> Path:
    """Splitting-error table against the exact flow, in the original (unweighted) variables."""
    scenario = config.built_scenario
    table = trotter_error_table(
        assemble_generator(scenario.spec),
        config.u0,
        dts,
        times,
        config.register,
        weights=_weights(config),
    )
    path = _resolve_outdir(config) / "error_table.csv"
    table.to_csv(path)
    return path


def execute_stats(config: RunConfig) -> dict:
    dt, steps = map(config.resolved, ("dt", "steps"))
    pair = hermitian_split(assemble_generator(config.built_scenario.spec), _weights(config))
    c = emit_trotter_circuit(pair, config.register, steps, dt)
    stats = gate_stats(c)
    stats["steps"] = steps
    stats["n_qubits"] = c.n_qubits
    _write_json(_resolve_outdir(config) / "gate_stats.json", stats)
    return stats


def _probe_rows(path: Path) -> list[tuple[tuple[str, ...], str, float]]:
    """Rows of a ``probes.csv`` as (time, component, i, j, k) key, value text and value."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(tuple(r[:5]), r[5], float(r[5])) for r in rows]


def _is_file_name(name) -> bool:
    return isinstance(name, str) and name not in ("", "..") and Path(name).name == name


def execute_compare(dir_a: str, dir_b: str, outdir: str | None) -> dict:
    """Diff two runs' common snapshots and probe rows.

    Every compared file of both runs is read before the report directory is
    made, so a missing or malformed artifact writes nothing.
    """
    pa, pb = Path(dir_a), Path(dir_b)
    try:
        ma, mb = (json.loads((p / "manifest.json").read_text()) for p in (pa, pb))
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read manifests: {e}") from e
    for m in (ma, mb):
        if not (isinstance(m, dict) and {"scenario", "grid", "artifacts"} <= m.keys()):
            raise ConfigError("each manifest must be an object with scenario, grid and artifacts")
        if not (isinstance(m["artifacts"], list) and all(map(_is_file_name, m["artifacts"]))):
            raise ConfigError("a manifest's artifacts must be a list of file names")
    if ma["grid"] != mb["grid"] or ma["scenario"] != mb["scenario"]:
        raise ConfigError("runs have mismatching scenario or layout")
    common = sorted(
        set(ma["artifacts"]) & set(mb["artifacts"]) - {"probes.csv"}
    )
    both_probed = "probes.csv" in ma["artifacts"] and "probes.csv" in mb["artifacts"]
    try:
        diffs = {
            name: np.loadtxt(pa / name, delimiter=",", ndmin=2) - np.loadtxt(pb / name, delimiter=",", ndmin=2)
            for name in common
        }
        rows_a, rows_b = (_probe_rows(p / "probes.csv") for p in (pa, pb)) if both_probed else ([], [])
    except (OSError, ValueError, IndexError) as e:
        raise ConfigError(f"cannot read artifacts: {e}") from e
    out = Path(outdir) if outdir else pa / "compare"
    out.mkdir(parents=True, exist_ok=True)
    report = {"scenario": ma["scenario"], "snapshots": {}, "probes": None}
    with open(out / "diff.csv", "w") as fh:
        fh.write("artifact,l2,linf\n")
        for name, d in diffs.items():
            l2, linf = float(np.linalg.norm(d)), float(np.max(np.abs(d))) if d.size else 0.0
            report["snapshots"][name] = {"l2": l2, "linf": linf}
            fh.write(f"{name},{_fmt(l2)},{_fmt(linf)}\n")
    if both_probed:
        keyed_b = {key: (text, value) for key, text, value in rows_b}
        with open(out / "probes_overlay.csv", "w") as fh:
            fh.write("time,component,i,j,k,value_a,value_b\n")
            worst, indeterminate = 0.0, 0
            for key, text, value in rows_a:
                other = keyed_b.get(key)
                if other is None:
                    continue
                fh.write(",".join(key) + f",{text},{other[0]}\n")
                diff = abs(value - other[1])
                if math.isnan(diff):  # a row indeterminate in either run agrees with nothing
                    indeterminate += 1
                else:
                    worst = max(worst, diff)
            report["probes"] = {"linf": worst, "indeterminate": indeterminate}
    _write_json(out / "report.json", report)
    return report


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--scenario", choices=SCENARIO_NAMES)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--nz", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--n-a", dest="n_a", type=int)
    p.add_argument("--p-min", dest="p_min", type=float)
    p.add_argument("--p-max", dest="p_max", type=float)
    p.add_argument("--offset", dest="offset_c", type=float)
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--probes", nargs="*", help="probe specs comp:i:j[:k]")
    p.add_argument("--probe-every", dest="probe_every", type=int)
    p.add_argument("--snapshot-times", dest="snapshot_times", nargs="*", type=float)
    p.add_argument("--outdir")
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--unweighted", action="store_true", help="skip the skew-restoring similarity scaling")
    p.add_argument("--recovery-mode", dest="recovery_mode", choices=RECOVERY_MODES)


def _config_from_args(args) -> RunConfig:
    overrides = {
        k: getattr(args, k, None)
        for k in RunConfig.__dataclass_fields__
        if k != "weighted"
    }
    if getattr(args, "unweighted", False):
        overrides["weighted"] = False
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qmaxwell", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    _add_common_flags(p_run)
    p_table = sub.add_parser("table", help="splitting-error table over (dt, T)")
    _add_common_flags(p_table)
    p_table.add_argument("--dts", nargs="+", type=float, default=[0.1, 0.01])
    p_table.add_argument("--times", nargs="+", type=float, default=[8.0, 16.0, 24.0])
    p_stats = sub.add_parser("stats", help="gate counts for the scenario circuit")
    _add_common_flags(p_stats)
    p_cmp = sub.add_parser("compare", help="diff two run directories")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.add_argument("--outdir")
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            manifest = execute_run(_config_from_args(args))
            print(json.dumps({k: manifest[k] for k in ("scenario", "artifacts")}, indent=2))
        elif args.verb == "table":
            path = execute_table(_config_from_args(args), args.dts, args.times)
            print(path)
        elif args.verb == "stats":
            print(json.dumps(execute_stats(_config_from_args(args)), indent=2, sort_keys=True))
        else:
            report = execute_compare(args.run_a, args.run_b, args.outdir)
            print(json.dumps(report, indent=2, sort_keys=True))
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecoveryInfeasibleError as e:
        print(f"numerically infeasible: {e}", file=sys.stderr)
        return 3
    except QmaxwellError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
