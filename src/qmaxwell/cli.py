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
import os
import sys
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .circuit import gate_stats
from .errors import ConfigError, IndeterminateSignError, QmaxwellError, RecoveryInfeasibleError
from .grid import FieldLayout, FieldState, component_name, pack_initial_condition, qubit_count
from .lifting import LiftedExactRunner, PRegister
from .measure import (
    ProbeRequest,
    apply_offset,
    magnitude_at,
    pipeline_state,
    remove_offset,
    signed_field_at,
    unit_offset_state,
)
from .operators import assemble_generator, skew_defect, symmetrizing_weights
from .oracle import OracleRunner, grid_step, snapshot, trotter_error_table
from .scenarios import SCENARIO_NAMES, build_scenario
from .trotter import TrotterRunner, compile_generator, emit_trotter_circuit

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
        """Check every setting and build the auxiliary ``register`` once; returns ``self``."""
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
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
        try:
            self.register = PRegister(self.n_a, self.p_min, self.p_max)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad auxiliary register: {e}") from e
        return self


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
    try:
        return RunConfig(**data).validate()
    except TypeError as e:
        raise ConfigError(f"bad config value: {e}") from e


def _parse_probes(items, layout: FieldLayout) -> list[ProbeRequest]:
    """Probe requests from ``comp:i:j[:k]`` specs (or JSON lists), each checked against ``layout``."""
    out = []
    for item in items:
        parts = item.split(":") if isinstance(item, str) else list(item)
        if len(parts) not in (3, 4):
            raise ConfigError(f"probe {item!r} must be comp:i:j[:k]")
        try:
            idx = [int(p) for p in parts[1:]] + [0] * (4 - len(parts))
            probe = ProbeRequest(component_name(str(parts[0])), *idx)
            layout.flat_index(probe.component, *idx)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad probe {item!r}: {e}") from e
        out.append(probe)
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_grid_csv(path: Path, array: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in array:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _snapshot_files(outdir: Path, state: FieldState, time: float) -> list[str]:
    spec = state.layout.spec
    files = []
    for comp in state.layout.components:
        if spec.dim == 2:
            name = f"{comp.value}_T{time:g}.csv"
            _write_grid_csv(outdir / name, snapshot(state, comp))
            files.append(name)
        else:
            centers = {"xy": spec.nz // 2, "xz": spec.ny // 2, "yz": spec.nx // 2}
            for plane, idx in centers.items():
                name = f"{comp.value}_T{time:g}_{plane}{idx}.csv"
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

    def row(self, time, probe: ProbeRequest, value, magnitude, sign, shots):
        self.fh.write(
            f"{_fmt(time)},{probe.component.value},{probe.i},{probe.j},{probe.k},"
            f"{_fmt(value)},{_fmt(magnitude)},{sign},{shots}\n"
        )

    def exact(self, time, state: FieldState):
        """Rows read directly off a classical field."""
        for p in self.probes:
            v = state.at(p.component, p.i, p.j, p.k)
            self.row(time, p, v, abs(v), 1 if v >= 0 else -1, "exact")

    def signed(self, time, pipe, shots, rng):
        """Rows measured on a statevector; an indeterminate sign gives value=nan, sign=0."""
        for p in self.probes:
            try:
                r = signed_field_at(p, pipe, shots, rng)
                self.row(time, p, r.value, r.magnitude, r.sign, r.shots_used)
            except IndeterminateSignError:
                flat = pipe.layout.flat_index(p.component, p.i, p.j, p.k)
                est = magnitude_at(pipe.amps, flat, pipe.scales[flat], shots, rng)
                self.row(time, p, float("nan"), est.value, 0, est.shots_used)


def _resolve_outdir(config: RunConfig) -> Path:
    if config.outdir:
        out = Path(config.outdir)
    else:
        root = os.environ.get("QMAXWELL_OUTPUT_ROOT", "runs")
        out = Path(root) / config.scenario
    out.mkdir(parents=True, exist_ok=True)
    return out


def _weights(config: RunConfig, scenario) -> np.ndarray | None:
    return symmetrizing_weights(scenario.spec) if config.weighted else None


# Each backend returns (step runner, its recovered field at the runner's time, probe reader).


def _oracle_backend(config, scenario, a, u0, dt, probes, manifest):
    runner = OracleRunner(a, u0, dt)
    return runner, runner.recover, lambda writer: writer.exact(runner.time, runner.recover())


def _lifted_exact_backend(config, scenario, a, u0, dt, probes, manifest):
    runner = LiftedExactRunner(a, u0, config.register, dt, _weights(config, scenario))
    manifest["skew_defect_used"] = skew_defect((runner.pair.h1 + 1j * runner.pair.h2).real)
    recover = partial(runner.recover, config.recovery_mode)
    return runner, recover, lambda writer: writer.exact(runner.time, recover())


def _circuit_backend(config, scenario, a, u0, dt, probes, manifest):
    """Trotter runner; with probes it evolves ``u0 + c * unit offset`` and an oracle evolves the offset."""
    reference = ProbeRequest(scenario.impulses[0][0], *scenario.center)
    c = config.offset_c
    sim_u0 = apply_offset(u0, reference.component, c) if probes else u0
    runner = TrotterRunner.from_generator(
        a, sim_u0, config.register, dt, _weights(config, scenario)
    )
    manifest["blocks_per_step"] = {
        "skew_part": len(runner.h2_blocks),
        "symmetric_part": len(runner.h1_blocks),
    }
    manifest["gate_stats_per_step"] = gate_stats(runner.step_circuit)
    recover = partial(runner.recover, config.recovery_mode)
    if not probes:
        return runner, recover, None
    response = OracleRunner(a, unit_offset_state(u0.layout, reference.component), dt)
    rng = np.random.default_rng(config.seed)

    def offset_response() -> FieldState:
        response.advance(runner.steps_done - response.steps_done)
        return response.recover()

    def read(writer):
        pipe = pipeline_state(runner, c, offset_response(), reference)
        writer.signed(runner.time, pipe, config.shots, rng)

    return runner, lambda: remove_offset(recover(), c, offset_response()), read


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
    scenario = build_scenario(config.scenario, config.nx, config.ny, config.nz)
    spec = scenario.spec
    dt = config.dt if config.dt is not None else scenario.dt
    steps = config.steps if config.steps is not None else scenario.steps
    snap_times = (
        tuple(config.snapshot_times)
        if config.snapshot_times is not None
        else scenario.snapshot_times
    )
    snap_steps = {grid_step(t, dt) for t in snap_times if t <= steps * dt + 1e-9}
    probes = _parse_probes(config.probes, FieldLayout(spec))
    probe_steps = set(range(0, steps + 1, config.probe_every)) if probes else set()
    outdir = _resolve_outdir(config)

    a = assemble_generator(spec)
    u0 = pack_initial_condition(spec, list(scenario.impulses))

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
    runner, recover, read_probes = BACKENDS[config.backend](
        config, scenario, a, u0, dt, probes, manifest
    )

    snapshots_written = []
    with closing(_ProbeWriter(outdir / "probes.csv", probes)) if probes else nullcontext() as writer:
        for s in sorted(snap_steps | probe_steps):
            runner.advance(s - runner.steps_done)
            if s in snap_steps:
                snapshots_written += _snapshot_files(outdir, recover(), runner.time)
            if s in probe_steps:
                read_probes(writer)
    if probes:
        manifest["artifacts"].append("probes.csv")
    manifest["artifacts"].extend(sorted(set(snapshots_written)))
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def execute_table(config: RunConfig, dts, times) -> Path:
    """Splitting-error table against the exact flow, in the original (unweighted) variables."""
    scenario = build_scenario(config.scenario, config.nx, config.ny, config.nz)
    table = trotter_error_table(
        assemble_generator(scenario.spec),
        pack_initial_condition(scenario.spec, list(scenario.impulses)),
        dts,
        times,
        config.register,
        recovery_mode=config.recovery_mode,
        weights=_weights(config, scenario),
    )
    path = _resolve_outdir(config) / "error_table.csv"
    table.to_csv(path)
    return path


def execute_stats(config: RunConfig) -> dict:
    scenario = build_scenario(config.scenario, config.nx, config.ny, config.nz)
    dt = config.dt if config.dt is not None else scenario.dt
    steps = config.steps if config.steps is not None else scenario.steps
    _, h1_blocks, h2_blocks = compile_generator(
        assemble_generator(scenario.spec), dt, _weights(config, scenario)
    )
    c = emit_trotter_circuit(h1_blocks, h2_blocks, config.register, steps)
    stats = gate_stats(c)
    stats["steps"] = steps
    stats["n_qubits"] = c.n_qubits
    outdir = _resolve_outdir(config)
    (outdir / "gate_stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return stats


def _read_csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines]


def execute_compare(dir_a: str, dir_b: str, outdir: str | None) -> dict:
    pa, pb = Path(dir_a), Path(dir_b)
    try:
        ma = json.loads((pa / "manifest.json").read_text())
        mb = json.loads((pb / "manifest.json").read_text())
    except OSError as e:
        raise ConfigError(f"cannot read manifests: {e}") from e
    if ma["grid"] != mb["grid"] or ma["scenario"] != mb["scenario"]:
        raise ConfigError("runs have mismatching scenario or layout")
    out = Path(outdir) if outdir else pa / "compare"
    out.mkdir(parents=True, exist_ok=True)
    report = {"scenario": ma["scenario"], "snapshots": {}, "probes": None}
    common = sorted(
        set(ma["artifacts"]) & set(mb["artifacts"]) - {"probes.csv"}
    )
    with open(out / "diff.csv", "w") as fh:
        fh.write("artifact,l2,linf\n")
        for name in common:
            arr_a = np.loadtxt(pa / name, delimiter=",", ndmin=2)
            arr_b = np.loadtxt(pb / name, delimiter=",", ndmin=2)
            d = arr_a - arr_b
            l2, linf = float(np.linalg.norm(d)), float(np.max(np.abs(d))) if d.size else 0.0
            report["snapshots"][name] = {"l2": l2, "linf": linf}
            fh.write(f"{name},{_fmt(l2)},{_fmt(linf)}\n")
    if "probes.csv" in ma["artifacts"] and "probes.csv" in mb["artifacts"]:
        rows_a = _read_csv_rows(pa / "probes.csv")[1:]
        rows_b = _read_csv_rows(pb / "probes.csv")[1:]
        keyed_b = {tuple(r[:5]): r for r in rows_b}
        with open(out / "probes_overlay.csv", "w") as fh:
            fh.write("time,component,i,j,k,value_a,value_b\n")
            worst = 0.0
            for r in rows_a:
                other = keyed_b.get(tuple(r[:5]))
                if other is None:
                    continue
                fh.write(",".join(r[:5]) + f",{r[5]},{other[5]}\n")
                worst = max(worst, abs(float(r[5]) - float(other[5])))
            report["probes"] = {"linf": worst}
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
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
    p.add_argument("--recovery-mode", dest="recovery_mode", choices=("single", "lsq"))


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
