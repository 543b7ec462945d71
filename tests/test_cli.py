import csv
import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmaxwell.cli import (
    RunConfig,
    execute_compare,
    execute_run,
    execute_stats,
    execute_table,
    load_config,
    main,
)
from qmaxwell.errors import ConfigError
from qmaxwell.grid import Component, pack_initial_condition
from qmaxwell.lifting import (
    PRegister,
    evolve_lifted_exact,
    hermitian_split,
    initial_lifted_state,
    recover_solution,
)
from qmaxwell.operators import apply_weights, assemble_generator, symmetrizing_weights
from qmaxwell.oracle import exact_evolution, snapshot, trotter_error_table
from qmaxwell.scenarios import build_scenario


def small_run_config(tmp_path, **kw):
    base = dict(
        scenario="2d-empty",
        nx=4,
        ny=4,
        dt=0.1,
        steps=5,
        backend="circuit",
        probes=["Ez:2:2", "Hx:2:2"],
        snapshot_times=[0.0, 0.5],
        outdir=str(tmp_path / "run"),
        seed=7,
    )
    base.update(kw)
    return RunConfig(**base).validate()


class TestConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            RunConfig(scenario="4d-empty").validate()

    def test_json_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "2d-empty", "dt": 0.5, "steps": 3}))
        out = load_config(str(cfg), {"dt": 0.25})
        assert out.dt == 0.25  # flag wins
        assert out.steps == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenarios": "2d-empty"}))
        with pytest.raises(ConfigError):
            load_config(str(cfg), {})

    def test_bad_probe_spec(self, tmp_path):
        # Each is refused before any artifact is written (Ex has no 2D sample).
        for spec in ("Ez", "Ez:x:3", "Ez:99:3", "Ez:1:1:2", "Qz:1:1", "Ex:1:1", ["Ez", 1, 1, 0, 5]):
            config = small_run_config(tmp_path, probes=[spec])
            with pytest.raises(ConfigError):
                execute_run(config)
            out = Path(config.outdir)
            assert not out.exists() or not any(out.iterdir()), spec


class TestRun:
    def test_circuit_run_artifacts(self, tmp_path):
        config = small_run_config(tmp_path)
        manifest = execute_run(config)
        out = Path(config.outdir)
        assert (out / "manifest.json").exists()
        assert (out / "probes.csv").exists()
        for name in ("Ez_T0.csv", "Ez_T0.5.csv", "Hx_T0.5.csv", "Hy_T0.5.csv"):
            assert (out / name).exists(), name
        rows = (out / "probes.csv").read_text().splitlines()
        assert rows[0] == "time,component,i,j,k,value,magnitude,sign,shots"
        assert len(rows) == 1 + 2 * 6  # two probes, steps 0..5
        assert manifest["system_qubits"] == 6
        assert manifest["blocks_per_step"]["symmetric_part"] == 0  # weighted run

    def test_zero_steps_emits_initial_only(self, tmp_path):
        config = small_run_config(tmp_path, steps=0, probes=[], snapshot_times=[0.0])
        manifest = execute_run(config)
        assert manifest["artifacts"] == sorted(
            ["Ez_T0.csv", "Hx_T0.csv", "Hy_T0.csv"]
        )
        ez = np.loadtxt(Path(config.outdir) / "Ez_T0.csv", delimiter=",")
        assert abs(ez[2, 2] - 1.0) < 1e-12
        assert np.sum(np.abs(ez) > 1e-12) == 1

    def test_determinism_byte_identical(self, tmp_path):
        c1 = small_run_config(tmp_path, outdir=str(tmp_path / "a"), shots=128)
        c2 = small_run_config(tmp_path, outdir=str(tmp_path / "b"), shots=128)
        execute_run(c1)
        execute_run(c2)
        for name in ("probes.csv", "Ez_T0.5.csv", "manifest.json"):
            ba = (Path(c1.outdir) / name).read_bytes()
            bb = (Path(c2.outdir) / name).read_bytes()
            # manifests differ only in the echoed outdir
            if name == "manifest.json":
                ba = ba.replace(b'"a"', b'"x"').replace(bytes(str(tmp_path / "a"), "utf8"), b"")
                bb = bb.replace(b'"b"', b'"x"').replace(bytes(str(tmp_path / "b"), "utf8"), b"")
            assert ba == bb, name

    def test_oracle_backend_probes(self, tmp_path):
        config = small_run_config(
            tmp_path, backend="oracle", outdir=str(tmp_path / "oracle")
        )
        execute_run(config)
        rows = (Path(config.outdir) / "probes.csv").read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert first[1] == "Ez" and float(first[5]) == 1.0

    def test_lifted_exact_backend(self, tmp_path):
        config = small_run_config(
            tmp_path, backend="lifted-exact", outdir=str(tmp_path / "lift"),
            probes=["Ez:2:2"],
        )
        manifest = execute_run(config)
        assert manifest["skew_defect_used"] < 1e-14
        assert (Path(config.outdir) / "probes.csv").exists()

    def test_circuit_vs_oracle_probe_agreement(self, tmp_path):
        co = small_run_config(tmp_path, backend="oracle", outdir=str(tmp_path / "o"), dt=0.05, steps=10)
        cc = small_run_config(tmp_path, backend="circuit", outdir=str(tmp_path / "c"), dt=0.05, steps=10)
        execute_run(co)
        execute_run(cc)
        report = execute_compare(str(tmp_path / "o"), str(tmp_path / "c"), str(tmp_path / "cmp"))
        assert report["probes"]["linf"] < 0.1  # splitting error scale


    def test_oracle_probe_rows_match_exact_flow(self, tmp_path):
        config = small_run_config(
            tmp_path, scenario="2d-scatterer", nx=8, ny=8, backend="oracle", steps=12,
            probes=["Ez:1:1", "Hx:0:1", "Hy:1:0", "Ez:7:6"], snapshot_times=[],
        )
        execute_run(config)
        scenario = build_scenario("2d-scatterer", 8, 8)
        a = assemble_generator(scenario.spec)
        u0 = pack_initial_condition(scenario.spec, list(scenario.impulses))
        rows = list(csv.DictReader((Path(config.outdir) / "probes.csv").open()))
        assert len(rows) == 4 * 13
        for r in rows:
            step = round(float(r["time"]) / 0.1)
            exact = exact_evolution(a, u0, step * 0.1)
            want = exact.at(Component(r["component"]), int(r["i"]), int(r["j"]))
            assert abs(float(r["value"]) - want) <= 1e-12

    def test_circuit_probes_match_snapshots(self, tmp_path):
        # With probes the circuit evolves u0 + c * offset; snapshots must not carry the offset.
        probes = ["Ez:4:4", "Ez:3:2", "Hx:3:5", "Hy:6:2", "Ez:1:13"]
        config = small_run_config(
            tmp_path, scenario="2d-scatterer", nx=None, ny=None, steps=30,
            probes=probes, snapshot_times=[0.0, 1.0, 3.0],
        )
        execute_run(config)
        out = Path(config.outdir)
        rows = list(csv.DictReader((out / "probes.csv").open()))
        checked = 0
        for t in (0, 1, 3):
            for r in rows:
                if abs(float(r["time"]) - t) > 1e-9:
                    continue
                grid = np.loadtxt(out / f"{r['component']}_T{t:g}.csv", delimiter=",")
                assert abs(float(r["value"]) - grid[int(r["j"]), int(r["i"])]) <= 1e-12
                checked += 1
        assert checked == 3 * len(probes)

    def test_lifted_exact_snapshot_matches_direct_evolution(self, tmp_path):
        config = small_run_config(
            tmp_path, scenario="2d-scatterer", nx=8, ny=8, backend="lifted-exact",
            steps=20, probes=[], snapshot_times=[2.0],
        )
        execute_run(config)
        scenario = build_scenario("2d-scatterer", 8, 8)
        w = symmetrizing_weights(scenario.spec)
        pair = hermitian_split(apply_weights(assemble_generator(scenario.spec), w))
        reg = PRegister(1)
        u0 = pack_initial_condition(scenario.spec, list(scenario.impulses))
        lift = initial_lifted_state(u0, reg, w)
        v = evolve_lifted_exact(pair, reg, lift.values, 2.0)
        direct = recover_solution(v, reg, pair, 2.0, lift.norm, u0.layout, weights=w)
        for comp in u0.layout.components:
            got = np.loadtxt(Path(config.outdir) / f"{comp.value}_T2.csv", delimiter=",")
            assert np.max(np.abs(got - snapshot(direct, comp))) <= 1e-12

    def test_sub_roundoff_amplitude_reads_zero(self, tmp_path):
        # Step 1 leaves Hx(2, 5) at about 1e-35 of the reference amplitude.
        rc = main([
            "run", "--scenario", "2d-scatterer", "--steps", "2", "--backend", "circuit",
            "--probes", "Hx:2:5", "--outdir", str(tmp_path / "r"),
        ])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "r" / "probes.csv").open()))
        step1 = [r for r in rows if abs(float(r["time"]) - 0.1) < 1e-9]
        assert len(step1) == 1 and abs(float(step1[0]["value"])) <= 1e-12

    @pytest.mark.parametrize("backend", ["oracle", "lifted-exact", "circuit"])
    def test_off_grid_snapshot_exit_two(self, tmp_path, backend):
        rc = main([
            "run", "--scenario", "2d-empty", "--nx", "4", "--ny", "4", "--dt", "0.1",
            "--steps", "5", "--backend", backend, "--snapshot-times", "0.25",
            "--outdir", str(tmp_path / "r"),
        ])
        assert rc == 2


class TestCompare:
    def test_identical_runs_zero_diff(self, tmp_path):
        c1 = small_run_config(tmp_path, outdir=str(tmp_path / "a"))
        c2 = small_run_config(tmp_path, outdir=str(tmp_path / "b"))
        execute_run(c1)
        execute_run(c2)
        report = execute_compare(str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "cmp"))
        assert all(v["l2"] == 0.0 for v in report["snapshots"].values())
        assert report["probes"]["linf"] == 0.0

    def test_layout_mismatch_rejected(self, tmp_path):
        c1 = small_run_config(tmp_path, outdir=str(tmp_path / "a"))
        c2 = small_run_config(tmp_path, nx=8, ny=8, outdir=str(tmp_path / "b"))
        execute_run(c1)
        execute_run(c2)
        with pytest.raises(ConfigError):
            execute_compare(str(tmp_path / "a"), str(tmp_path / "b"), None)


class TestTableAndStats:
    def test_table_csv(self, tmp_path):
        config = small_run_config(tmp_path, probes=[])
        path = execute_table(config, dts=[0.1, 0.05], times=[0.5, 1.0])
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "time,dt,Ez,Hx,Hy"
        assert len(lines) == 5
        # dt halving roughly halves the dominant error at fixed T
        import csv

        rows = list(csv.DictReader(Path(path).open()))
        e_big = float(rows[1]["Ez"])
        e_small = float(rows[3]["Ez"])
        assert 1.3 < e_big / e_small < 2.7

    def test_table_honours_recovery_mode(self, tmp_path):
        kw = dict(probes=[], n_a=3, p_min=-4.0, p_max=4.0)
        single = small_run_config(tmp_path, outdir=str(tmp_path / "s"), **kw)
        lsq = small_run_config(tmp_path, outdir=str(tmp_path / "l"), recovery_mode="lsq", **kw)
        path_s = execute_table(single, dts=[0.1], times=[0.5])
        path_l = execute_table(lsq, dts=[0.1], times=[0.5])
        scenario = build_scenario("2d-empty", 4, 4)
        table = trotter_error_table(
            assemble_generator(scenario.spec),
            pack_initial_condition(scenario.spec, list(scenario.impulses)),
            [0.1], [0.5], PRegister(3, -4.0, 4.0), recovery_mode="lsq",
            weights=symmetrizing_weights(scenario.spec),
        )
        table.to_csv(tmp_path / "lib.csv")
        assert Path(path_l).read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert Path(path_l).read_bytes() != Path(path_s).read_bytes()

    def test_table_off_grid_horizon_exit_two(self, tmp_path):
        rc = main([
            "table", "--scenario", "2d-empty", "--nx", "4", "--dts", "0.3",
            "--times", "1.0", "--outdir", str(tmp_path / "t"),
        ])
        assert rc == 2

    def test_stats_json(self, tmp_path):
        config = small_run_config(tmp_path, probes=[], steps=2)
        stats = execute_stats(config)
        assert stats["two_qubit_count"] > 0
        assert stats["depth"] > 0
        assert (Path(config.outdir) / "gate_stats.json").exists()

    def test_stats_with_fourier_register_pinned(self, tmp_path):
        # Three auxiliary qubits: the lowered Fourier transform exchanges one qubit pair.
        rc = main([
            "stats", "--scenario", "2d-scatterer", "--nx", "8", "--n-a", "3",
            "--p-min", "-4", "--p-max", "4", "--steps", "2", "--outdir", str(tmp_path / "s"),
        ])
        assert rc == 0
        assert (tmp_path / "s" / "gate_stats.json").read_text() == json.dumps({
            "abstract_depth": 983,
            "depth": 75873,
            "n_qubits": 11,
            "single_qubit_count": 74039,
            "steps": 2,
            "two_qubit_count": 48148,
        }, indent=2) + "\n"


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        rc = main([
            "run", "--scenario", "2d-empty", "--nx", "4", "--ny", "4",
            "--dt", "0.1", "--steps", "2", "--outdir", str(tmp_path / "r"),
            "--snapshot-times", "0.2",
        ])
        assert rc == 0
        assert "Ez_T0.2.csv" in capsys.readouterr().out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        # Each (flags, --config JSON value) is refused before any artifact is written.
        scatterer = ["--scenario", "2d-scatterer", "--nx", "8", "--steps", "2"]
        bad = [
            (["--scenario", "2d-empty", "--nx", "4", "--ny", "4", "--dt", "-1"], None),
            (scatterer + ["--shots", "0", "--probes", "Ez:5:5"], None),
            (scatterer + ["--shots", "-3", "--probes", "Ez:5:5"], None),
            (scatterer + ["--p-min", "1", "--p-max", "0"], None),
            (scatterer + ["--p-max", "-1"], None),
            (scatterer, [1, 2]),
            (scatterer, {"dt": "0.1"}),
            (scatterer, {"n_a": 2.5}),
        ]
        for k, (args, config) in enumerate(bad):
            out = tmp_path / f"r{k}"
            argv = ["run", *args, "--outdir", str(out)]
            if config is not None:
                path = tmp_path / f"c{k}.json"
                path.write_text(json.dumps(config))
                argv += ["--config", str(path)]
            assert main(argv) == 2, (args, config)
            assert not out.exists() or not any(out.iterdir()), (args, config)

    def test_infeasible_recovery_exit_three(self, tmp_path, capsys):
        # Unweighted scatterer-free run with a window below the spectral bound.
        # The failed run must still close probes.csv.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            rc = main([
                "run", "--scenario", "2d-scatterer", "--nx", "8", "--ny", "8",
                "--dt", "0.1", "--steps", "12", "--unweighted",
                "--p-min", "-0.2", "--p-max", "0.2",
                "--probes", "Ez:2:2",
                "--outdir", str(tmp_path / "r"),
            ])
            gc.collect()
        assert rc == 3
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_undecidable_relative_phase_writes_sign_zero_rows(self, tmp_path):
        # The narrow window leaves the recovery slice with relative phases
        # that are neither 0 nor pi at t = 0.2 and 0.3; those rows read
        # value=nan, sign=0, and the window becomes infeasible at t = 0.4.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the default offset equals the certified bound
            rc = main([
                "run", "--scenario", "2d-scatterer", "--steps", "10", "--backend", "circuit",
                "--p-min", "-0.2", "--p-max", "0.3",
                "--probes", "Ez:3:3", "Hx:5:2", "Hy:6:4", "Ez:7:1",
                "--outdir", str(tmp_path / "r"),
            ])
        assert rc == 3
        rows = list(csv.DictReader((tmp_path / "r" / "probes.csv").open()))
        undecided = [r for r in rows if r["sign"] == "0"]
        assert sorted({round(float(r["time"]), 9) for r in undecided}) == [0.2, 0.3]
        assert len(undecided) == 8 and all(r["value"] == "nan" for r in undecided)
        assert max(float(r["time"]) for r in rows) < 0.35
