import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from qmaxwell import oracle
from qmaxwell.errors import ConfigError, GridError
from qmaxwell.grid import Component, FieldLayout, GridSpec, pack_initial_condition
from qmaxwell.lifting import PRegister
from qmaxwell.operators import assemble_generator, symmetrizing_weights
from qmaxwell.oracle import (
    ErrorRow,
    ErrorTable,
    OracleRunner,
    component_errors,
    exact_evolution,
    grid_step,
    snapshot,
    trotter_error_table,
)

from helpers import normalized_cross_correlation, rk4_evolution


def impulse(spec, i, j, k=0):
    return pack_initial_condition(spec, [(Component.EZ, i, j, k, 1.0)])


class TestExactEvolution:
    def test_t_zero(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        u0 = impulse(spec, 2, 2)
        out = exact_evolution(a, u0, 0.0)
        assert np.array_equal(out.values, u0.values)
        assert out.time == 0.0

    def test_skew_flow_preserves_norm(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((32, 32))
        m = m - m.T
        v = rng.standard_normal(32)
        out = exact_evolution(m, v, 3.0)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-10

    def test_against_rk4(self):
        spec = GridSpec(nx=8, ny=8, dim=2)
        a = assemble_generator(spec)
        u0 = impulse(spec, 4, 4)
        dense = exact_evolution(a, u0, 2.0)
        stepped = rk4_evolution(a, u0, 2.0, dt=1e-4)
        assert np.max(np.abs(dense.values - stepped.values)) < 1e-6

    def test_dense_krylov_cross_validation(self):
        # The two exponential routes agree far below the oracle tolerance.
        for n in (4, 8, 16):
            spec = GridSpec(nx=n, ny=n, dim=2)
            a = assemble_generator(spec)
            u0 = impulse(spec, n // 2, n // 2)
            dense = exact_evolution(a, u0, 2.0)  # dim < 4096: dense route
            kry = expm_multiply(a.tocsc() * 2.0, u0.values)
            assert np.max(np.abs(dense.values - kry)) < 1e-9

    def test_dimension_cap(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError):
            exact_evolution(sp.identity(1 << 17, format="csr"), np.ones(1 << 17), 1.0)


class TestErrorTable:
    def test_zero_horizon_errors_vanish(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        u0 = impulse(spec, 2, 2)
        table = trotter_error_table(a, u0, [0.1], [0.0], PRegister(n_a=1))
        row = table.rows[0]
        assert all(err < 1e-10 for err in row.errors.values())

    def test_rows_cover_grid(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        u0 = impulse(spec, 2, 2)
        table = trotter_error_table(a, u0, [0.1, 0.05], [0.5, 1.0], PRegister(n_a=1))
        assert len(table.rows) == 4
        assert {r.dt for r in table.rows} == {0.1, 0.05}

    def test_one_exact_reference_per_horizon(self, monkeypatch):
        import qmaxwell.oracle as oracle

        horizons = []

        def counted(a, u0, t):
            horizons.append(t)
            return exact_evolution(a, u0, t)

        monkeypatch.setattr(oracle, "exact_evolution", counted)
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = impulse(spec, 2, 2)
        times = [1.0, 0.5]
        trotter_error_table(assemble_generator(spec), u0, [0.1, 0.05], times, PRegister(n_a=1))
        assert len(horizons) == len(times) and sorted(horizons) == sorted(times)

    def test_generator_compiled_once(self, monkeypatch):
        # Blocks hold no step size, so two dts share one compile of h1 and h2.
        import qmaxwell.lifting as lifting

        compiled = []
        real = lifting.compile_blocks

        def counted(h):
            compiled.append(h)
            return real(h)

        monkeypatch.setattr(lifting, "compile_blocks", counted)
        spec = GridSpec(nx=4, ny=4, dim=2)
        trotter_error_table(
            assemble_generator(spec), impulse(spec, 2, 2), [0.1, 0.05], [0.5],
            PRegister(n_a=1), weights=symmetrizing_weights(spec),
        )
        assert len(compiled) == 2

    def test_non_multiple_time_rejected(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        u0 = impulse(spec, 2, 2)
        with pytest.raises(ValueError):
            trotter_error_table(a, u0, [0.3], [1.0], PRegister(n_a=1))

    def test_csv_layout(self, tmp_path):
        comps = (Component.EZ, Component.HX, Component.HY)
        rows = (
            ErrorRow(time=8.0, dt=0.01, errors={c: 0.01 for c in comps}),
            ErrorRow(time=8.0, dt=0.1, errors={c: 0.1 for c in comps}),
        )
        table = ErrorTable(components=comps, rows=rows)
        path = tmp_path / "t.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,dt,Ez,Hx,Hy"
        assert lines[1].startswith("8.0,0.01,")

    def test_monotone_check_flags_shrink(self, caplog):
        comps = (Component.EZ,)
        rows = (
            ErrorRow(time=8.0, dt=0.1, errors={Component.EZ: 0.2}),
            ErrorRow(time=16.0, dt=0.1, errors={Component.EZ: 0.1}),
        )
        table = ErrorTable(components=comps, rows=rows)
        with caplog.at_level("WARNING"):
            assert not table.check_monotone()
        assert any("shrank" in r.message for r in caplog.records)

    def test_monotone_check_compares_within_each_dt(self):
        # Interleaved step sizes: each dt grows with the horizon, the two together do not.
        rows = (
            ErrorRow(time=8.0, dt=0.1, errors={Component.EZ: 0.2}),
            ErrorRow(time=8.0, dt=0.05, errors={Component.EZ: 0.05}),
            ErrorRow(time=16.0, dt=0.1, errors={Component.EZ: 0.3}),
            ErrorRow(time=16.0, dt=0.05, errors={Component.EZ: 0.1}),
        )
        assert ErrorTable(components=(Component.EZ,), rows=rows).check_monotone()


class TestSnapshots:
    def test_initial_impulse_single_pixel(self):
        spec = GridSpec(nx=8, ny=8, dim=2)
        u0 = impulse(spec, 3, 5)
        arr = snapshot(u0, Component.EZ)
        assert arr.shape == (8, 8)
        assert arr[5, 3] == 1.0
        assert np.count_nonzero(arr) == 1

    def test_3d_cross_sections(self):
        spec = GridSpec(nx=4, ny=4, nz=4, dim=3)
        u0 = pack_initial_condition(spec, [(Component.EZ, 1, 2, 2, 1.0)])
        xy = snapshot(u0, Component.EZ, "xy", 2)
        assert xy.shape == (4, 4) and xy[2, 1] == 1.0
        xz = snapshot(u0, Component.EZ, "xz", 2)
        assert xz.shape == (4, 4) and xz[2, 1] == 1.0
        yz = snapshot(u0, Component.EZ, "yz", 1)
        assert yz.shape == (4, 4) and yz[2, 2] == 1.0

    def test_invalid_plane(self):
        spec = GridSpec(nx=4, ny=4, nz=4, dim=3)
        u0 = impulse(spec, 1, 1, 1)
        with pytest.raises(ValueError):
            snapshot(u0, Component.EZ, "diag", 0)
        with pytest.raises(ValueError):
            snapshot(u0, Component.EZ, "xy", 9)
        # A 2D grid is one z sample thick: its only "xy" cut is index 0.
        flat = impulse(GridSpec(nx=4, ny=4, dim=2), 1, 1)
        for plane, index in (("diag", 0), ("xy", 3), ("xy", 1), ("xz", 4)):
            with pytest.raises(GridError):
                snapshot(flat, Component.EZ, plane, index)
        assert snapshot(flat, Component.EZ, "xz", 0).shape == (1, 4)

    def test_mirror_symmetry_of_centered_impulse(self):
        # Centered excitation on a symmetric cavity: the electric field at a
        # diagonal-symmetric pair of times/points is symmetric under x<->y.
        spec = GridSpec(nx=8, ny=8, dim=2)
        a = assemble_generator(spec)
        u0 = impulse(spec, 4, 4)
        state = exact_evolution(a, u0, 3.0)
        ez = snapshot(state, Component.EZ)
        assert np.max(np.abs(ez - ez.T)) < 1e-8


class TestNcc:
    def test_identical(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        assert normalized_cross_correlation(a, a) == pytest.approx(1.0)
        assert normalized_cross_correlation(a, 2.5 * a) == pytest.approx(1.0)

    def test_orthogonal_and_zero(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert normalized_cross_correlation(a, b) == 0.0
        assert normalized_cross_correlation(a, np.zeros((1, 2))) == 0.0


class TestComponentErrors:
    def test_zero_for_identical(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = impulse(spec, 2, 2)
        errs = component_errors(u0, u0)
        assert all(v == 0.0 for v in errs.values())


class TestOracleRunner:
    def test_stepping_matches_direct_flow(self):
        spec = GridSpec(nx=8, ny=8, dim=2)
        a = assemble_generator(spec)
        u0 = impulse(spec, 3, 4)
        runner = OracleRunner(a, u0, 0.1)
        for s in (1, 2, 5, 12):
            runner.advance(s - runner.steps_done)
            state = runner.recover()
            assert state.time == s * 0.1
            direct = exact_evolution(a, u0, s * 0.1)
            assert np.max(np.abs(state.values - direct.values)) <= 1e-12

    def test_annihilated_state_is_fixed(self):
        from qmaxwell.measure import unit_offset_state

        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        ones = unit_offset_state(FieldLayout(spec), Component.EZ)
        assert not (a.tocsr() @ ones.values).any()
        runner = OracleRunner(a, ones, 0.1)
        runner.advance(7)
        assert runner.recover().values is ones.values
        assert runner.time == pytest.approx(0.7)

    @pytest.mark.parametrize("gaps", [(1,) * 10, (1, 1, 3, 3, 1)])
    def test_steps_give_the_bytes_of_chained_flows(self, gaps):
        spec = GridSpec(nx=8, ny=8, dim=2)
        a = assemble_generator(spec)
        state = impulse(spec, 3, 4)
        runner = OracleRunner(a, state, 0.1)
        for gap in gaps:
            runner.advance(gap)
            state = exact_evolution(a, state, gap * 0.1)
            assert np.array_equal(runner.recover().values, state.values)

    def test_dense_expm_once_per_change_of_gap(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return expm(m)

        monkeypatch.setattr(oracle, "expm", counted)
        spec = GridSpec(nx=4, ny=4, dim=2)
        runner = OracleRunner(assemble_generator(spec), impulse(spec, 2, 2), 0.1)
        for gap in (1, 1, 0, 1, 3, 3, 1):
            runner.advance(gap)
        assert len(calls) == 3

    def test_krylov_branch_gives_the_bytes_of_exact_evolution(self):
        spec = GridSpec(nx=32, ny=32, dim=2)
        a = assemble_generator(spec)
        assert a.shape[0] >= oracle._DENSE_LIMIT
        state = impulse(spec, 16, 16)
        runner = OracleRunner(a, state, 0.1)
        for gap in (1, 1, 2):
            runner.advance(gap)
            state = exact_evolution(a, state, gap * 0.1)
        assert np.array_equal(runner.recover().values, state.values)

    def test_negative_steps_refused_with_state_and_clock_kept(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        runner = OracleRunner(assemble_generator(spec), impulse(spec, 2, 2), 0.1)
        runner.advance(2)
        before = runner.recover()
        with pytest.raises(ConfigError):
            runner.advance(-2)
        assert runner.steps_done == 2
        assert runner.recover().values is before.values


def test_grid_step_rejects_off_grid_times():
    from qmaxwell.errors import ConfigError

    assert grid_step(1.5, 0.1) == 15
    assert grid_step(0.0, 0.1) == 0
    for t, dt in (
        (0.25, 0.1), (-0.1, 0.1), (np.nan, 0.1), (np.inf, 0.1),
        (1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (1.0, np.inf),
    ):
        with pytest.raises(ConfigError):
            grid_step(t, dt)
