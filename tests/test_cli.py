import csv
import gc
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

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
from qmaxwell.lifting import LiftedExactRunner, PRegister, hermitian_split
from qmaxwell.operators import assemble_generator, symmetrizing_weights
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
        # Each is refused before any artifact is written (Ex has no 2D sample;
        # Hx:1:3 and Hy:3:1 are pad slots of the 4x4 grid).
        for spec in (
            "Ez", "Ez:x:3", "Ez:99:3", "Ez:1:1:2", "Qz:1:1", "Ex:1:1", ["Ez", 1, 1, 0, 5], "Hx:1:3", "Hy:3:1",
            ["Ez", 1.5, 1], ["Hx", True, 1], ["Ez", "1", 1],
        ):
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

    def test_oracle_run_exponentiates_once(self, tmp_path, monkeypatch):
        import qmaxwell.oracle

        calls = []

        def counted(m):
            calls.append(m.shape)
            return expm(m)

        monkeypatch.setattr(qmaxwell.oracle, "expm", counted)
        argv = ["run", "--scenario", "2d-scatterer", "--backend", "oracle", "--steps", "10"]
        probes = ["--probes", "Ez:1:1", "Hx:5:2", "Hy:1:6", "Ez:3:3"]
        assert main([*argv, *probes, "--outdir", str(tmp_path / "run")]) == 0
        assert calls == [(1024, 1024)]

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
        pair = hermitian_split(assemble_generator(scenario.spec), w)
        reg = PRegister(1)
        u0 = pack_initial_condition(scenario.spec, list(scenario.impulses))
        runner = LiftedExactRunner(pair, u0, reg, 2.0)
        runner.advance(1)
        direct = runner.recover()
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

    def test_shot_mode_zero_hits_read_zero(self, tmp_path):
        # Hx:5:2, Hy:1:6 and Ez:3:3 (inside the body, frozen at zero) draw no
        # magnitude hits and carry no offset correction, so each reads a certain 0.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the default offset equals the certified bound
            rc = main([
                "run", "--scenario", "2d-scatterer", "--nx", "8", "--steps", "10", "--shots", "500",
                "--seed", "3", "--probes", "Ez:1:1", "Hx:5:2", "Hy:1:6", "Ez:3:3",
                "--outdir", str(tmp_path / "r"),
            ])
        assert rc == 0
        rows = (tmp_path / "r" / "probes.csv").read_text().splitlines()[1:]
        zero = [r for r in rows if ",Ez,1,1," not in r]
        assert len(zero) == 33 and all(r.endswith(",0,0.0,0.0,1,500") for r in zero)
        # Their sign draws still happen, so the reference probe's rows keep their bytes.
        ref = "\n".join(r for r in rows if ",Ez,1,1," in r)
        assert hashlib.sha256(ref.encode()).hexdigest() == (
            "c26d7298f720f2232536f010f08450032175823296818e140d6f6a857510cda1"
        )

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
        assert report["probes"] == {"linf": 0.0, "indeterminate": 0}

    def test_indeterminate_probe_rows_counted_apart(self, tmp_path):
        # The narrow window leaves the circuit's four rows at t = 0.2 and 0.3
        # indeterminate (nan); they count apart, and the t = 0.1 rows set linf.
        run = [
            "run", "--scenario", "2d-scatterer", "--steps", "3", "--p-min", "-0.2", "--p-max", "0.3",
            "--probes", "Ez:3:3", "Hx:5:2",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the default offset equals the certified bound
            for backend in ("circuit", "oracle"):
                assert main([*run, "--backend", backend, "--outdir", str(tmp_path / backend)]) == 0
        report = execute_compare(str(tmp_path / "oracle"), str(tmp_path / "circuit"), str(tmp_path / "cmp"))
        assert report["probes"]["indeterminate"] == 4
        assert report["probes"]["linf"] == pytest.approx(0.019842, abs=1e-6)

    @pytest.mark.parametrize(
        "text, files",
        [
            ("{not json", {}),
            ("{}", {}),
            ("[1]", {}),
            ({"artifacts": 5}, {}),
            ({"artifacts": [5]}, {}),
            ({"artifacts": ["../a/manifest.json"]}, {}),
            ({}, {}),
            ({"artifacts": ["Ez_T0.csv"]}, {"Ez_T0.csv": "x,y\n"}),
        ],
        ids=[
            "unreadable", "no-keys", "not-object", "artifacts-not-list", "artifacts-not-names",
            "artifact-outside-run", "artifact-missing", "artifact-not-numeric",
        ],
    )
    def test_malformed_manifest_exit_two(self, tmp_path, text, files):
        """A dict ``text`` overrides keys of a good manifest with the same scenario and grid;
        ``files`` are the only artifacts written next to it."""
        good = execute_run(small_run_config(tmp_path, outdir=str(tmp_path / "a"), steps=0, probes=[]))
        assert "Ez_T0.csv" in good["artifacts"]
        bad = tmp_path / "b"
        bad.mkdir()
        (bad / "manifest.json").write_text(text if isinstance(text, str) else json.dumps({**good, **text}))
        for name, content in files.items():
            (bad / name).write_text(content)
        report = tmp_path / "cmp"
        for pair in ((tmp_path / "a", bad), (bad, tmp_path / "a")):
            assert main(["compare", *map(str, pair), "--outdir", str(report)]) == 2
            assert not report.exists()

    def test_probe_rows_missing_from_b_skipped(self, tmp_path):
        # Run b probes every other step, so it lacks run a's rows at odd steps.
        execute_run(small_run_config(tmp_path, outdir=str(tmp_path / "a"), backend="oracle"))
        execute_run(small_run_config(tmp_path, outdir=str(tmp_path / "b"), backend="oracle", probe_every=2))
        report = execute_compare(str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "cmp"))
        overlay = (tmp_path / "cmp" / "probes_overlay.csv").read_text().splitlines()[1:]
        rows_b = (tmp_path / "b" / "probes.csv").read_text().splitlines()[1:]
        assert len(overlay) == len(rows_b) == 6
        assert [r.split(",")[0] for r in overlay] == [r.split(",")[0] for r in rows_b]
        # The oracle steps b in twos, so its rows differ from a's by rounding only.
        assert report["probes"]["indeterminate"] == 0 and report["probes"]["linf"] < 1e-12

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
            [0.1], [0.5], PRegister(3, -4.0, 4.0, "lsq"),
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

    @pytest.mark.parametrize("steps", [0, 100])
    def test_stats_full_size_matches_benchmark_file(self, tmp_path, steps):
        # The default 32x32 grid: the files the benchmark checks its stats run against.
        expected = (
            Path(__file__).resolve().parents[1]
            / "perfbench" / "expected" / f"gate_stats-2d-empty-nxdefault-steps{steps}.json"
        )
        rc = main([
            "stats", "--scenario", "2d-empty", "--steps", str(steps), "--seed", "1",
            "--outdir", str(tmp_path / "s"),
        ])
        assert rc == 0
        assert (tmp_path / "s" / "gate_stats.json").read_bytes() == expected.read_bytes()

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

    def test_bad_config_exit_two(self, tmp_path, capsys, monkeypatch):
        # Each (argv, --config JSON value) is refused before any artifact is written.
        def no_register(*args):
            raise AssertionError("the register was built before its size was checked")

        def no_field(*args):
            raise AssertionError("the initial field was built before the grid size was checked")

        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{not json")
        unstepped = ["run", "--scenario", "2d-scatterer", "--nx", "8"]
        scatterer = [*unstepped, "--steps", "2"]
        probed = [*scatterer, "--probes", "Ez:1:1"]
        empty = ["run", "--scenario", "2d-empty", "--steps", "1"]
        table = ["table", "--scenario", "2d-empty", "--nx", "4"]
        bad = [
            (["run", "--scenario", "2d-empty", "--nx", "4", "--ny", "4", "--dt", "-1"], None),
            (scatterer + ["--shots", "0", "--probes", "Ez:5:5"], None),
            (scatterer + ["--shots", "-3", "--probes", "Ez:5:5"], None),
            (scatterer + ["--p-min", "1", "--p-max", "0"], None),
            (scatterer + ["--p-max", "-1"], None),
            (empty + ["--nx", "4", "--p-min", "-2000", "--p-max", "2000"], None),
            (empty + ["--nx", "4", "--p-min", "700", "--p-max", "800", "--probes", "Ez:2:2"], None),
            (scatterer, [1, 2]),
            (scatterer, {"dt": "0.1"}),
            (scatterer, {"n_a": 2.5}),
            (empty + ["--nx", "0"], None),
            (empty + ["--nx", "4", "--ny", "0"], None),
            (empty + ["--nx", "4", "--nz", "8"], None),
            (empty + ["--nx", "6"], None),
            (scatterer + ["--nx", "4"], None),
            (["run", "--scenario", "3d-empty", "--nx", "4", "--nz", "2", "--steps", "1"], None),
            (["stats", "--scenario", "2d-empty", "--nx", "4", "--n-a", "40"], None),
            (empty + ["--nx", "65536"], None),
            (empty + ["--nx", "4", "--steps", "-1"], None),
            (probed + ["--offset", "0"], None),
            (probed + ["--offset", "-1"], None),
            (probed + ["--probe-every", "0"], None),
            (scatterer + ["--config", str(tmp_path / "missing.json")], None),
            (scatterer + ["--config", str(malformed)], None),
            (scatterer + ["--dt", "nan"], None),
            (scatterer + ["--dt", "inf"], None),
            (scatterer + ["--p-min", "nan"], None),
            (scatterer + ["--p-max", "inf"], None),
            (scatterer + ["--offset", "nan", "--probes", "Ez:5:5"], None),
            (scatterer + ["--snapshot-times", "nan"], None),
            (table + ["--dts", "0", "--times", "1.0"], None),
            (table + ["--dts", "nan", "--times", "1.0"], None),
            (table + ["--dts", "0.1", "--times", "nan"], None),
            # JSON values of the wrong type.
            (unstepped, {"steps": 2.5}),
            (unstepped + ["--probes", "Ez:1:1"], {"steps": 2.5}),
            (probed, {"probe_every": 1.5}),
            (probed, {"seed": "x"}),
            (probed + ["--seed", "-1"], None),
            (probed, {"shots": 2.5}),
            (scatterer, {"recovery_mode": "foo"}),
            (scatterer, {"outdir": 5}),
            (scatterer, {"weighted": "no"}),
            (scatterer, {"dt": True}),
            (scatterer, {"n_a": True}),
            (["run", "--scenario", "2d-scatterer", "--steps", "2"], {"nx": 8.0}),
            (scatterer, {"p_min": "-1"}),
            (scatterer, {"offset_c": False}),
            (scatterer, {"backend": ["circuit"]}),
            (scatterer, {"backend": "foo"}),
            (scatterer, {"probes": "Ez:1:1"}),
            (scatterer, {"probes": [5]}),
            (scatterer, {"snapshot_times": 1.0}),
            (scatterer, {"snapshot_times": [0.0, "1"]}),
        ]
        for k, (args, config) in enumerate(bad):
            out = tmp_path / f"r{k}"
            # A config that names its own outdir is not overridden by the flag.
            argv = [*args] if config and "outdir" in config else [*args, "--outdir", str(out)]
            if config is not None:
                path = tmp_path / f"c{k}.json"
                path.write_text(json.dumps(config))
                argv += ["--config", str(path)]
            with monkeypatch.context() as patch:
                if "--n-a" in args:
                    patch.setattr("qmaxwell.cli.PRegister", no_register)
                if "65536" in args:
                    patch.setattr("qmaxwell.cli.pack_initial_condition", no_field)
                assert main(argv) == 2, (args, config)
            assert not out.exists() or not any(out.iterdir()), (args, config)
        assert not any(cwd.iterdir())

    def test_oversized_refusal_names_what_is_too_large(self, capsys, monkeypatch):
        monkeypatch.setattr("qmaxwell.cli.pack_initial_condition", lambda *args: None)
        assert main(["run", "--scenario", "2d-empty", "--nx", "65536"]) == 2
        assert "bad grid: 34 qubits exceed the cap" in capsys.readouterr().err
        assert main(["stats", "--scenario", "2d-empty", "--nx", "4", "--n-a", "40"]) == 2
        assert "6 grid plus 40 auxiliary qubits exceed the cap" in capsys.readouterr().err

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
        # The offset shifts every E_z sample, so their magnitude is unknown too.
        assert all(r["magnitude"] == "nan" for r in undecided if r["component"] == "Ez")
        assert max(float(r["time"]) for r in rows) < 0.35


_SCATTERER = ["--scenario", "2d-scatterer", "--nx", "8", "--steps", "4", "--snapshot-times", "0.4"]
_PROBES = ["--probes", "Ez:1:1", "Hx:5:2", "Hy:1:6"]
# In-process CLI calls whose artifacts are pinned.  "shots" writes three
# shot-gap sign-0 rows and "narrow-window" four phase-undecided ones.
_PINNED_RUNS = {
    "circuit": ["run", *_SCATTERER, *_PROBES],
    "circuit-na3-unweighted": [
        "run", *_SCATTERER, *_PROBES, "--n-a", "3", "--unweighted", "--p-min", "-4", "--p-max", "4",
    ],
    "lifted-exact-lsq": ["run", *_SCATTERER, "--backend", "lifted-exact", "--unweighted", "--recovery-mode", "lsq"],
    "oracle": ["run", *_SCATTERER, *_PROBES, "--backend", "oracle"],
    "3d-empty": [
        "run", "--scenario", "3d-empty", "--nx", "4", "--steps", "2",
        "--probes", "Ez:2:2:2", "Hx:1:2:2", "--snapshot-times", "0", "0.2",
    ],
    "stats": ["stats", "--scenario", "2d-empty", "--nx", "4", "--steps", "2"],
    "table": ["table", "--scenario", "2d-empty", "--nx", "8", "--dts", "0.1", "0.05", "--times", "0.2", "0.4"],
    "shots": [
        "run", "--scenario", "2d-scatterer", "--nx", "8", "--steps", "10", "--shots", "500", "--seed", "3",
        "--probes", "Ez:1:1", "Hx:5:2", "Hy:1:6", "Ez:3:3",
    ],
    "narrow-window": [
        "run", "--scenario", "2d-scatterer", "--steps", "3", "--p-min", "-0.2", "--p-max", "0.3",
        "--probes", "Ez:3:3", "Hx:5:2",
    ],
}
# sha256 of every artifact of each run; the manifest's echoed outdir reads "OUT".
_ARTIFACT_DIGESTS = {
    "circuit": {
        "Ez_T0.4.csv": "d4e82df1baf9b6b4f400b64ea8026d035c56bc47a4132fbce4745e865ffe3493",
        "Hx_T0.4.csv": "5e2600be7ed35a4850f8a0a272499cc7a61412180271626c8dc94f55be3fda8c",
        "Hy_T0.4.csv": "90eab4e79cf12800354fda3385a563d22bd3083a8f0ba34481bf2759b57de479",
        "manifest.json": "bb4b98873dec1b2891b195830cb5b4b4eeed8c066b693a2e294bb9ddeef47161",
        "probes.csv": "804cdef357dc815a39d976c24e5533afbe6fd45630ed6aeca44e066faad88bd6",
    },
    "circuit-na3-unweighted": {
        "Ez_T0.4.csv": "159f4c59e0a48c2769b63b19fada0c0f668585748a3ec8acbec1b58acff01c5e",
        "Hx_T0.4.csv": "6ca2e3c314dd74ec102295c36694c5369809e9e5e551f00a97ad55a7fd341848",
        "Hy_T0.4.csv": "710c83fc2d01f937997027bddff0989465d6418f2cd0cf891f435535ff0cac62",
        "manifest.json": "176ed175e2bcd904a40137d712f9b7a4811938795d4ec65ce00ac8e148ae5543",
        "probes.csv": "0fdc6a32ca8c88ba0682e02b78a0e4d3fa5b500300f2d69d9b3dd083814edaad",
    },
    "lifted-exact-lsq": {
        "Ez_T0.4.csv": "65853ebaf8a847cdcb06dd10128fa2e2a48f1b3b979f7d547402f03a1ff8320d",
        "Hx_T0.4.csv": "27d009cfb866f042a05a5d9ab8eb7c8d7e479621f78c77fcfd740709043b4213",
        "Hy_T0.4.csv": "5bfdb89ed5dcfea60b84dcb60befbe55fbaae84584e8d3f539f1994f199c9ff5",
        "manifest.json": "dfbba234cc4545e3fad769b57c3cfbe80d3751b9e9e1aa6f93803fd4c858ef0c",
    },
    "oracle": {
        "Ez_T0.4.csv": "3d4eff7997c5c4cdb2b5c0164ca1e648bf78479b2050521618504c8b02b1f980",
        "Hx_T0.4.csv": "944349f6631c6b2dd42f02f522409cd9d728ce0e93fec585ad11c56e17bf5ae7",
        "Hy_T0.4.csv": "5bbf46c241af6a4ad3bd9838624e52b23af4d5e3c6d5f2599ae0c43218736531",
        "manifest.json": "94098d3f8934604c75b67c62ac3618d3d9527464ac799f9babbd9b565f1b1671",
        "probes.csv": "2e6f656f5e7457c4bb785cb887386e8996d2fb26d8d7e97f012c9672edcb2441",
    },
    "3d-empty": {
        "Ex_T0.2_xy2.csv": "48ad3c68ca05f08c8b1eddf6c1a42e60431dc774eb833655bc2265d3066051f1",
        "Ex_T0.2_xz2.csv": "62433db8ca9373801c157a9eab2b9eda8aaaee035e2b79db954a1b99c4b9b74f",
        "Ex_T0.2_yz2.csv": "c10cf936f9216684598d5fd5a20ea81006fbb9add9f6e4ad9497d736f2571ac7",
        "Ex_T0_xy2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Ex_T0_xz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Ex_T0_yz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Ey_T0.2_xy2.csv": "e7ad76fbefe6af1c40434a7ecedd220a3e6e2f6a816bf8fe45bbfdf496f9983b",
        "Ey_T0.2_xz2.csv": "e82090d4e8f13d4506c36045ee326e5c0c0e8e35422b60b011dc0762fd8023f7",
        "Ey_T0.2_yz2.csv": "9c0b77d16e198d85f20e21d1d78ed8c53f2ff866dde1ce31dc0703ba52071450",
        "Ey_T0_xy2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Ey_T0_xz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Ey_T0_yz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Ez_T0.2_xy2.csv": "b677835cc6d3f748afb0b5c8487c5410c89d4d49eb31634c41ca128af9d17da0",
        "Ez_T0.2_xz2.csv": "c77a6d052d45a02062516a64c2f9c907d1ae61caa22860bfa65b45a90f6521e4",
        "Ez_T0.2_yz2.csv": "83c3fb8d13484b54256cf8dee690e00c09c056392ec3da47e4568c345531b869",
        "Ez_T0_xy2.csv": "6e01479e31ed36d56ecdf2b7d6348bd0ba8060efd3c7efb119930e254c13ab16",
        "Ez_T0_xz2.csv": "7e45cba6f11229c1e7ddcb90744974e5a93f62e2b0f5b799c0510e3bc0cdeddc",
        "Ez_T0_yz2.csv": "7e45cba6f11229c1e7ddcb90744974e5a93f62e2b0f5b799c0510e3bc0cdeddc",
        "Hx_T0.2_xy2.csv": "4231b486da9146080347cd347e4a5fb2acc19256b093b1565df307aa9b244b9c",
        "Hx_T0.2_xz2.csv": "b9a665b82ab2d86741f3d92e2b61513e7d866afcf76f36cce90e3e972e7b40cb",
        "Hx_T0.2_yz2.csv": "fd7b9f1cb96b7888137b45d3f2b4c8fd7347350b415b8ebffd296101a98c362d",
        "Hx_T0_xy2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Hx_T0_xz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Hx_T0_yz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Hy_T0.2_xy2.csv": "e91063a30dba5d7a8d1877bcf4b2c430e1de619886e1c4b7a074e863ec6e6d82",
        "Hy_T0.2_xz2.csv": "b327e9336e166349dabc141abd301d436c3f2283830c8952825c31a37ecc54ca",
        "Hy_T0.2_yz2.csv": "b62ec8e4e5a4ee995df28d6a49fd11752d3f17e13f0504b0b4e49bc02d1b0b0a",
        "Hy_T0_xy2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Hy_T0_xz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Hy_T0_yz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Hz_T0.2_xy2.csv": "fa60aecfb85460abf15cda60e98ea49d98e2315c4b3d5c0d6902e9ad72fdf2e1",
        "Hz_T0.2_xz2.csv": "2e50c7cb788c4a70a0cc3229a6cef3dcc8b077fbfa2356accb251788f99d2096",
        "Hz_T0.2_yz2.csv": "7d1a532dfbf0a5b0ad1b579d93786f1ac8669ad026fedae1d70f793d9e6e117e",
        "Hz_T0_xy2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Hz_T0_xz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "Hz_T0_yz2.csv": "8576d9531c815f73f7c9db26bfee67160107aee964c3ed683a4eecf05a2d1a47",
        "manifest.json": "eae13c4c214583b95d3408356623e14b97a1bbb9b5cd4f3a5cb5c71fbdcf45df",
        "probes.csv": "6b0f085e814d829683272b606baf9f8de6d877258126c29974fe5fd101813d5d",
    },
    "stats": {
        "gate_stats.json": "c5446c212d1f44cbb854a8748ba055d1a41211fe64837f233bfb24d8a73946eb",
    },
    "table": {
        "error_table.csv": "dd2781f310cb0c7c672001b66ed4f76745061f8eb49c4bddb27b5030df4bafea",
    },
    "shots": {
        "Ez_T0.csv": "6aff7b3d51359bd42cb1620406f8f737cb014bf6eb065f6430444abeec4223a5",
        "Hx_T0.csv": "787d9e38debb3a4506303fb2e735372bbe0cdd64c6046724615eda7f96d529e4",
        "Hy_T0.csv": "787d9e38debb3a4506303fb2e735372bbe0cdd64c6046724615eda7f96d529e4",
        "manifest.json": "8f1603410318710ac26ebe3c8d480dbc05b0a9f2c45e3116c98c79ae0d27679c",
        "probes.csv": "1263c4fecbfc7ff7545a7206a489ad3b0925cc36dc0cbada2b364d4893da3680",
    },
    "narrow-window": {
        "Ez_T0.csv": "299de010da5098d8937b5beb2677d4c0a31f0af1ad5310c909aa5837c1ff4167",
        "Hx_T0.csv": "73efcba66f347e94c286883184340153306077481ecf538237f1d93a8274109f",
        "Hy_T0.csv": "73efcba66f347e94c286883184340153306077481ecf538237f1d93a8274109f",
        "manifest.json": "ae2b0c41269b642a59c0c716a0a8a9f8c43c5f2767b85c66e11ed63f6c564238",
        "probes.csv": "6adc0c0032260cd833888bf34f1f836b1053094891dbc1caf1f115797e8346d9",
    },
}


@pytest.mark.parametrize("name", _PINNED_RUNS)
def test_artifact_bytes_pinned(tmp_path, name):
    out = tmp_path / name
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the default offset equals the certified bound
        assert main([*_PINNED_RUNS[name], "--outdir", str(out)]) == 0
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest["config"]["outdir"] = "OUT"
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    assert digests == _ARTIFACT_DIGESTS[name]
