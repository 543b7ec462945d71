"""qmaxwell benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload probes-2d-scatterer --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced
    python3 perfbench/run.py --smoke    # every workload on tiny grids, in seconds

With ``--trace 0`` each workload runs as the ``qmaxwell`` CLI in fresh
processes, one verb at a time (a closed loop with one client): each set-up
run (the same verb with ``--steps 0``) is followed by two full runs until
``--seconds`` have passed and each kind has run at least three times, and
the medians are reported.  With ``--trace 1`` one untraced run and two traced
runs (``spans.py``, which records spans in the CLI's own process) give the
per-layer metrics, the tracing overhead and the exact-count self-check.

Every run's outputs are checked against an independent reference (see
``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, and the environment.  The full record,
span summaries included, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: a CLI process then keeps to one core of the host's few,
# so the oracle's dense expm runs single-threaded.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170  # every process of one benchmark run ends within this
MIN_REPEATS = 3
# The CLI as its console script runs it.
CLI = [sys.executable, "-c", "import sys; from qmaxwell.cli import main; sys.exit(main())"]


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    scenario: str
    backend: str | None
    steps: int
    probes: int  # probe points drawn from the seed; 0 reads none
    field_tol: float  # upper limit on field_rel_err; a larger error fails the run
    probe_tol: float  # upper limit on probe_max_err
    nx: int | None = None  # grid override, used by --smoke


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "probes-2d-scatterer", "run", "2d-scatterer", "circuit", steps=150, probes=8,
            field_tol=17.4, probe_tol=2.5,
        ),
        Workload(
            "oracle-2d-scatterer", "run", "2d-scatterer", "oracle", steps=10, probes=8,
            field_tol=1e-8, probe_tol=1e-8,
        ),
        Workload("stats-2d-empty", "stats", "2d-empty", None, steps=100, probes=0, field_tol=0.0, probe_tol=0.0),
    )
}

# (grid width, steps) for --smoke, the smallest grids each scenario accepts;
# the accuracy limits do not apply there.
SMOKE = {
    "probes-2d-scatterer": (8, 4),
    "oracle-2d-scatterer": (8, 2),
    "stats-2d-empty": (4, 3),
}

# Exact signed readout raises ValueError ("relative phase of probe amplitudes is
# not 0 or pi") at step 1 on these 16x16 2d-scatterer samples: their amplitude
# is about 1e-35, below the 1e-30 floor in measure._aligned_amplitudes, and the
# CLI aborts.  A seed that drew one would crash the run, so the draw leaves them
# out, and every probe run prints them.
SIGN_READOUT_DEFECT = {
    ("2d-scatterer", 16): (
        "Hx:2:5", "Hx:2:6", "Hx:12:6", "Hx:14:6", "Hx:15:9", "Hx:1:13", "Hx:3:13",
        "Hy:5:0", "Hy:5:1", "Hy:13:2", "Hy:5:3", "Hy:13:10", "Hy:13:14", "Hy:13:15",
    ),
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _total(name):
    return lambda spans, counts: spans[name]["total_s"] if name in spans else None


def _calls(name):
    return lambda spans, counts: spans[name]["calls"] if name in spans else None


def _ms(name, key):
    return lambda spans, counts: 1e3 * spans[name][key] if name in spans else None


def _self(name):
    return lambda spans, counts: spans[name]["self_s"] if name in spans else None


def _count(name):
    return lambda spans, counts: counts.get(name)


def _cli_self(spans, counts):
    verb = [spans[n]["self_s"] for n in ("cli.execute_run", "cli.execute_stats") if n in spans]
    return sum(verb) if verb else None


# name -> (unit, value from (span summary, counters)); None means the span never fired.
PER_LAYER = {
    "circuit.simulate.s": ("s", _total("circuit.simulate")),
    "circuit.gates_applied": ("count", _count("circuit.gates_applied")),
    "circuit.bytes_moved_computed": ("B", _count("circuit.bytes_moved_computed")),
    "trotter.advance.p50_ms": ("ms", _ms("trotter.advance", "p50_s")),
    "trotter.advance.tail_ms": ("ms", _ms("trotter.advance", "tail_s")),
    "trotter.advance.n": ("count", _calls("trotter.advance")),
    "trotter.gates_per_step": ("count", _count("trotter.gates_per_step")),
    "bell.compile_blocks.s": ("s", _total("bell.compile_blocks")),
    "bell.blocks": ("count", _count("bell.blocks")),
    "trotter.from_generator.self_s": ("s", _self("trotter.from_generator")),
    "lifting.hermitian_split.s": ("s", _total("lifting.hermitian_split")),
    "operators.assemble_generator.s": ("s", _total("operators.assemble_generator")),
    "operators.symmetrizing_weights.s": ("s", _total("operators.symmetrizing_weights")),
    "operators.apply_weights.s": ("s", _total("operators.apply_weights")),
    "operators.skew_defect.s": ("s", _total("operators.skew_defect")),
    "operators.nnz": ("count", _count("operators.nnz")),
    "grid.pack_initial_condition.s": ("s", _total("grid.pack_initial_condition")),
    "circuit.gate_stats.s": ("s", _total("circuit.gate_stats")),
    "circuit.gates_lowered": ("count", _count("circuit.gates_lowered")),
    "trotter.emit_trotter_circuit.s": ("s", _total("trotter.emit_trotter_circuit")),
    "oracle.exact_evolution.s": ("s", _total("oracle.exact_evolution")),
    "oracle.exact_evolution.calls": ("count", _calls("oracle.exact_evolution")),
    "oracle.exact_evolution.p50_ms": ("ms", _ms("oracle.exact_evolution", "p50_s")),
    "lifting.recovery_bound.s": ("s", _total("lifting.recovery_bound")),
    "lifting.recovery_bound.calls": ("count", _calls("lifting.recovery_bound")),
    "lifting.recover_solution.s": ("s", _total("lifting.recover_solution")),
    "measure.pipeline_state.s": ("s", _total("measure.pipeline_state")),
    "measure.signed_field_at.s": ("s", _total("measure.signed_field_at")),
    "measure.readings": ("count", _calls("measure.signed_field_at")),
    "measure.apply_offset.s": ("s", _total("measure.apply_offset")),
    "measure.unit_offset_state.s": ("s", _total("measure.unit_offset_state")),
    "cli.self_s": ("s", _cli_self),
}
# Filled outside the span summary, from the runs themselves.
RUN_LEVEL = {
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "field_rel_err": "ratio",
    "probe_max_err": "field",
}


class Tally:
    """Operations attempted and failed across every CLI run of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, check) -> None:
        self.attempted += check.operations
        self.failures += [f"{label}: {f}" for f in check.failures]

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failures.append(message)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    return env


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float  # user + system time of the process
    rss_mb: float  # peak resident memory


def run_child(cmd: list[str], logdir: Path, timeout: float) -> ChildRun:
    """Run one process to completion, or kill it after ``timeout`` s, and measure it."""
    logdir.mkdir(parents=True, exist_ok=True)
    with open(logdir / "stdout.txt", "wb") as out, open(logdir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_argv(w: Workload, steps: int, outdir: Path, probes: list[str], seed: int, dt: float) -> list[str]:
    argv = [w.verb, "--scenario", w.scenario, "--steps", str(steps), "--outdir", str(outdir), "--seed", str(seed)]
    if w.nx is not None:
        argv += ["--nx", str(w.nx)]
    if w.verb == "run":
        # One snapshot, at the last step of the full run; set-up runs write none.
        argv += ["--backend", w.backend, "--snapshot-times", repr(round(w.steps * dt, 12))]
        if probes:
            argv += ["--probes", *probes]
    return argv


def draw_probes(w: Workload, seed: int) -> tuple[list[str], tuple[str, ...]]:
    """Seed-drawn probe points among active, non-body samples, and the excluded ones."""
    if not w.probes:
        return [], ()
    from qmaxwell.grid import FieldLayout
    from qmaxwell.scenarios import build_scenario

    spec = build_scenario(w.scenario, w.nx).spec
    layout = FieldLayout(spec)
    excluded = SIGN_READOUT_DEFECT.get((w.scenario, spec.nx), ())
    pool = [
        f"{c.value}:{i}:{j}"
        for c in layout.components
        for j in range(spec.ny)
        for i in range(spec.nx)
        if layout.is_active(c, i, j, 0)
    ]
    pool = [p for p in pool if p not in excluded]
    return random.Random(seed).sample(pool, w.probes), excluded


class BenchRun:
    """One benchmark run of one workload: inputs, reference and checks."""

    def __init__(self, w: Workload, seed: int, smoke: bool):
        import checks
        from qmaxwell.scenarios import build_scenario

        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.w, self.seed, self.smoke = w, seed, smoke
        self.dt = build_scenario(w.scenario, w.nx).dt
        self.probes, self.excluded = draw_probes(w, seed)
        self.ref = checks.build_reference(w.scenario, w.nx, w.steps) if w.verb == "run" else None
        self.tally = Tally()
        self.work = WORK / "work" / f"{w.name}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)

    def tolerances(self) -> dict:
        if self.smoke:
            return {"field_rel_err": float("inf"), "probe_max_err": float("inf")}
        return {"field_rel_err": self.w.field_tol, "probe_max_err": self.w.probe_tol}

    def check(self, outdir: Path, code: int, steps: int):
        import checks

        if self.w.verb == "stats":
            nx = self.w.nx or "default"
            expected = BENCH_DIR / "expected" / f"gate_stats-{self.w.scenario}-nx{nx}-steps{steps}.json"
            return checks.check_stats(outdir, code, expected)
        return checks.check_run(outdir, code, self.ref, steps, self.probes, self.tolerances())

    def run_cli(self, label: str, steps: int, traced: Path | None = None):
        """One CLI process, measured and checked."""
        outdir = self.work / label
        argv = cli_argv(self.w, steps, outdir / "out", self.probes, self.seed, self.dt)
        cmd = [sys.executable, str(BENCH_DIR / "spans.py"), str(traced), *argv] if traced else CLI + argv
        run = run_child(cmd, outdir, self.deadline - time.perf_counter())
        result = self.check(outdir / "out", run.code, steps)
        if run.code != 0:
            tail = (outdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-2:]
            result.failures[0] += f" ({' | '.join(tail)})"
        self.tally.add(label, result)
        return run, result


def measure_untraced(s: BenchRun, seconds: float, min_repeats: int) -> tuple[dict, dict]:
    setups, solves, results = [], [], []
    last_s = {}
    start = time.perf_counter()
    # Two full runs per set-up run: a full run is longer and its time feeds both
    # solve_s and steps_per_s.  Once each kind has run ``min_repeats`` times,
    # start the next run only if it should end within ``seconds``; when a full
    # run no longer fits, set-up runs fill what is left.
    for kind in itertools.cycle(("setup", "solve", "solve")):
        if len(setups) >= min_repeats and len(solves) >= min_repeats:
            left = seconds - (time.perf_counter() - start)
            if last_s[kind] > left:
                if last_s["setup"] > left:
                    break
                kind = "setup"
        if kind == "setup":
            run = s.run_cli(f"setup{len(setups)}", 0)[0]
            setups.append(run)
        else:
            run, result = s.run_cli(f"solve{len(solves)}", s.w.steps)
            solves.append(run)
            results.append(result)
        last_s[kind] = run.wall_s
    setup_s = statistics.median(r.wall_s for r in setups)
    solve_s = statistics.median(r.wall_s for r in solves)
    if solve_s <= setup_s and not s.smoke:
        s.tally.fail(f"median solve {solve_s:.4f} s not above median set-up {setup_s:.4f} s")
    metrics = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "steps_per_s": s.w.steps / max(solve_s - setup_s, 1e-9),
        "peak_rss_mb": statistics.median(r.rss_mb for r in solves),
    }
    detail = {
        "setup": [dataclasses.asdict(r) for r in setups],
        "solve": [dataclasses.asdict(r) for r in solves],
        # The CLI is deterministic, so every full run has the first one's accuracy.
        "field_rel_err": results[0].field_rel_err,
        "probe_max_err": results[0].probe_max_err,
    }
    return metrics, detail


def measure_traced(s: BenchRun) -> tuple[dict, dict]:
    from spans import EXACT_COUNTS, summarize

    untraced_run, untraced = s.run_cli("untraced", s.w.steps)
    walls, summaries, counters = [], [], []
    for r in range(2):
        trace_file = s.work / f"traced{r}.json"
        walls.append(s.run_cli(f"traced{r}", s.w.steps, traced=trace_file)[0].wall_s)
        try:
            data = json.loads(trace_file.read_text())
        except (OSError, json.JSONDecodeError) as e:
            s.tally.fail(f"traced{r}: no trace written ({e})")
            continue
        summaries.append(summarize(data["spans"]))
        counters.append(data["counts"])
    if len(summaries) < 2:
        return {}, {}
    for name in EXACT_COUNTS:
        if counters[0].get(name) != counters[1].get(name):
            s.tally.fail(f"count {name} differs between traced runs: {counters[0].get(name)} vs {counters[1].get(name)}")
    metrics, missing = {}, []
    for name, (_, value) in PER_LAYER.items():
        values = [value(summary, counts) for summary, counts in zip(summaries, counters)]
        if any(v is None for v in values):
            missing.append(name)
            metrics[name] = 0
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.bytes_written"] = untraced.bytes_written
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced_run.wall_s
    for name in ("field_rel_err", "probe_max_err"):
        value = getattr(untraced, name)
        if value is None:
            missing.append(name)
        metrics[name] = value or 0
    spans = {n: {k: v for k, v in e.items() if k != "durations"} for n, e in summaries[0].items()}
    return metrics, {"missing": missing, "spans": spans, "traced_s": walls, "untraced_s": untraced_run.wall_s}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(w: Workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": list(THREAD_VARS),
        "workload": w.name,
        "seed": seed,
    }


def units(trace: int) -> dict:
    if trace == 0:
        return dict(END_TO_END)
    return {**{n: u for n, (u, _) in PER_LAYER.items()}, **RUN_LEVEL}


def benchmark(w: Workload, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Run one workload once and print its report; returns the result object."""
    s = BenchRun(w, seed, smoke)
    # Byte-compile and page in before timing.
    run_child(CLI + ["--help"], s.work / "warmup", s.deadline - time.perf_counter())
    if trace == 0:
        metrics, detail = measure_untraced(s, seconds, 1 if smoke else MIN_REPEATS)
    else:
        metrics, detail = measure_traced(s)
    env = environment(w, seed)
    table = units(trace)
    result = {
        "correct": not s.tally.failures and bool(metrics),
        "attempted": s.tally.attempted,
        "failed": len(s.tally.failures),
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in table.items()},
    }
    why = {x["name"]: x["why"] for x in bench_spec()["workloads"]}[w.name]
    print(f"== {w.name} seed={seed} trace={trace}: {why}")
    if s.probes:
        print(f"   probes: {' '.join(s.probes)}")
    if s.excluded:
        print(f"   excluded from the draw (exact sign readout raises at step 1): {' '.join(s.excluded)}")
    missing = set(detail.get("missing", ()))
    for name, unit in table.items():
        shown = "missing (never fired)" if name in missing else f"{metrics.get(name, 0):.6g} {unit}"
        print(f"   {name:34s} {shown}")
    if trace == 0:
        print(f"   ({len(detail['setup'])} set-up and {len(detail['solve'])} full runs; medians)")
        for name in ("field_rel_err", "probe_max_err"):
            value = detail.get(name)
            shown = "n/a (no such output)" if value is None else f"{value:.6g} {RUN_LEVEL[name]}"
            print(f"   {name:34s} {shown} (no bound; traced runs report it too)")
    advance = detail.get("spans", {}).get("trotter.advance")
    if advance:
        print(f"   trotter.advance.tail_ms is percentile {advance['tail_pct']:.4g} of {advance['calls']} calls")
    frac = len(s.tally.failures) / max(s.tally.attempted, 1)
    print(f"   {'failed_frac':34s} {frac:.6g} ({len(s.tally.failures)}/{s.tally.attempted})")
    for f in s.tally.failures:
        print(f"   FAILED {f}")
    print(f"   env {json.dumps(env, sort_keys=True)}")
    record = {**result, "env": env, "probes": s.probes, "excluded": list(s.excluded), "detail": detail,
              "failures": s.tally.failures}
    out = WORK / "results" / f"{w.name}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=float) + "\n")
    shutil.rmtree(s.work, ignore_errors=True)
    return result


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_check(result: dict, trace: int) -> list[str]:
    """Metric names and units must match BENCHMARK.json."""
    spec = bench_spec()
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    return [] if got == want else [f"trace {trace}: metrics {sorted(set(got) ^ set(want))} or units disagree"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, one repeat, metric-name check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmaxwell" / "cli.py").is_file():
        print(f"error: no qmaxwell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    single = len(names) == 1 and len(traces) == 1 and not args.smoke
    results, problems = {}, []
    for name in names:
        w = WORKLOADS[name]
        if args.smoke:
            nx, steps = SMOKE[name]
            w = dataclasses.replace(w, nx=nx, steps=steps)
        for trace in traces:
            result = benchmark(w, args.seed, 0 if args.smoke else args.seconds, trace, args.smoke)
            results[(name, trace)] = result
            if args.smoke:
                problems += [f"{name} {p}" for p in smoke_check(result, trace)]
    if single:
        print(json.dumps(results[(names[0], traces[0])]))
        return 0
    problems += [f"{n} trace {t}: incorrect" for (n, t), r in results.items() if not r["correct"]]
    for p in problems:
        print(f"FAILED {p}")
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{m}": v for (n, t), r in results.items() if t == 0 for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
