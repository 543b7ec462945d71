import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qmaxwell.errors import ConfigError, RecoveryInfeasibleError
from qmaxwell.grid import Component, FieldLayout, GridSpec, ScattererBox, pack_initial_condition
from qmaxwell.lifting import (
    HermitianPair,
    LiftedExactRunner,
    LiftedRunner,
    PRegister,
    evolve_lifted_exact,
    hermitian_split,
    lifted_hamiltonian,
    recover_solution,
    recovery_bound,
)
from qmaxwell.operators import apply_weights, as_csr, assemble_generator, skew_defect, symmetrizing_weights

from helpers import FlatLayout, flat_state


def random_generator(n, rng):
    return rng.standard_normal((n, n))


class TestHermitianSplit:
    def test_skew_input(self):
        rng = np.random.default_rng(0)
        a = random_generator(6, rng)
        a = a - a.T
        pair = hermitian_split(a)
        assert pair.h1.nnz == 0
        assert np.allclose(pair.h2.toarray(), a / 1j, atol=1e-15)

    def test_symmetric_input(self):
        rng = np.random.default_rng(1)
        a = random_generator(6, rng)
        a = a + a.T
        pair = hermitian_split(a)
        assert pair.h2.nnz == 0
        assert np.allclose(pair.h1.toarray(), a, atol=1e-15)

    def test_reconstruction_scatterer_scenario(self):
        spec = GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox((2, 2), (6, 6)))
        a = assemble_generator(spec)
        pair = hermitian_split(a)
        recon = pair.h1.toarray() + 1j * pair.h2.toarray()
        err = np.linalg.norm(recon - a.toarray())
        assert err <= 1e-14 * max(1.0, np.linalg.norm(a.toarray()))

    def test_pair_carries_its_weights(self):
        # Splitting under weights equals splitting the scaled operator, and
        # records the weights; an unscaled split records unit weights.
        spec = GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox((2, 2), (6, 6)))
        a = assemble_generator(spec)
        w = symmetrizing_weights(spec)
        carried, scaled = hermitian_split(a, w), hermitian_split(apply_weights(a, w))
        for got, want in ((carried.h1, scaled.h1), (carried.h2, scaled.h2)):
            for part in ("indptr", "indices", "data"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
        assert carried.weights is w
        assert scaled.weights.tobytes() == np.ones(len(w)).tobytes()

    def test_lifted_hamiltonian(self):
        rng = np.random.default_rng(2)
        pair = hermitian_split(random_generator(8, rng))
        h = lifted_hamiltonian(pair, 0.0).toarray()
        assert np.allclose(h, pair.h2.toarray())
        # Linearity in the frequency via two-point interpolation.
        h1v = lifted_hamiltonian(pair, 1.0).toarray()
        h25 = lifted_hamiltonian(pair, 2.5).toarray()
        interp = h + 2.5 * (h1v - h)
        assert np.allclose(h25, interp, atol=1e-12)
        assert np.allclose(h25, h25.conj().T, atol=1e-13)


class TestPRegister:
    def test_default_single_qubit_grid_is_symmetric(self):
        reg = PRegister(n_a=1)
        assert np.allclose(reg.p_values, [-math.pi / 2, math.pi / 2])

    def test_grid_uniform_and_positive_point(self):
        reg = PRegister(n_a=3, p_min=-4.0, p_max=4.0)
        diffs = np.diff(reg.p_values)
        assert np.allclose(diffs, diffs[0])
        assert reg.p_values[-1] > 0
        assert reg.p_star == reg.p_values[reg.p_star_index] == reg.p_values.max()
        bad = ((-4.0, -1.0), (math.nan, 1.0), (-1.0, math.nan), (-math.inf, 1.0), (-1.0, math.inf),
               (-2000.0, 2000.0), (700.0, 800.0))  # the last two: e^{p*} overflows
        for p_min, p_max in bad:
            with pytest.raises(ValueError):
                PRegister(n_a=1, p_min=p_min, p_max=p_max)

    def test_xi_are_fft_frequencies(self):
        reg = PRegister(n_a=2)
        assert np.allclose(reg.xi_values, 2 * math.pi * np.fft.fftfreq(4, reg.dp))

    def test_profile_is_decay_of_abs_p(self):
        reg = PRegister(n_a=3, p_min=-2.0, p_max=4.0)
        expected = [math.exp(-abs(p)) for p in reg.p_values]
        np.testing.assert_allclose(reg.profile, expected, rtol=1e-15, atol=0)


def lift(u0, reg: PRegister) -> LiftedRunner:
    """The runner's lifted state of a bare vector, unweighted (a zero generator's pair)."""
    n = len(u0)
    return LiftedRunner(hermitian_split(np.zeros((n, n))), flat_state(u0), reg, 0.1)


class TestInitialLiftedState:
    def test_zero_point_slice_equals_input(self):
        # Grid {0, 2}: the p=0 slice carries u0 itself.
        reg = PRegister(n_a=1, p_min=-1.0, p_max=3.0)
        u0 = np.array([3.0, 4.0])
        lifted = lift(u0, reg)
        v = (lifted.psi * lifted.norm).reshape(2, 2)
        assert np.allclose(v[0], u0)

    def test_symmetric_two_point_grid(self):
        pbar = 1.3
        reg = PRegister(n_a=1, p_min=-2 * pbar, p_max=2 * pbar)
        assert np.allclose(reg.p_values, [-pbar, pbar])
        u0 = np.array([1.0, -2.0, 0.5, 0.0])
        lifted = lift(u0, reg)
        v = (lifted.psi * lifted.norm).reshape(2, 4)
        assert np.allclose(v[0], math.exp(-pbar) * u0)
        assert np.allclose(v[1], math.exp(-pbar) * u0)

    def test_slice_norms_follow_profile(self):
        reg = PRegister(n_a=3, p_min=-4.0, p_max=4.0)
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(8)
        lifted = lift(u0, reg)
        v = (lifted.psi * lifted.norm).reshape(8, 8)
        for k, p in enumerate(reg.p_values):
            assert np.isclose(np.linalg.norm(v[k]), math.exp(-abs(p)) * np.linalg.norm(u0))

    def test_slices_are_profile_times_weighted_field(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        pair = hermitian_split(assemble_generator(spec), symmetrizing_weights(spec))
        u0 = pack_initial_condition(spec, [(Component.EZ, 0, 1, 0, 1.0), (Component.HX, 2, 0, 0, -0.5)])
        reg = PRegister(n_a=2, p_min=-1.0, p_max=3.0)
        runner = LiftedRunner(pair, u0, reg, 0.1)
        slices = runner.psi.reshape(reg.n_points, -1)
        for k in range(reg.n_points):
            assert np.array_equal(slices[k], reg.profile[k] * (pair.weights * u0.values) / runner.norm)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            lift(np.zeros(4), PRegister(n_a=1))


def joint_generator(pair, reg):
    """Dense joint-space generator, built from the differentiation matrix.

    Independent of the per-branch exponential route: the transport term is
    assembled as an explicit matrix so the whole system can be fed to a
    classical time stepper.
    """
    n = reg.n_points
    fwd = np.fft.ifft(np.eye(n), axis=0)
    inv = np.fft.fft(np.eye(n), axis=0)
    d_p = inv @ np.diag(-1j * reg.xi_values) @ fwd
    h1 = pair.h1.toarray()
    h2 = pair.h2.toarray()
    eye = np.eye(n)
    return -np.kron(d_p, h1) + 1j * np.kron(eye, h2)


def rk4(matvec, v0, t, steps):
    v = v0.astype(complex)
    h = t / steps
    for _ in range(steps):
        k1 = matvec(v)
        k2 = matvec(v + 0.5 * h * k1)
        k3 = matvec(v + 0.5 * h * k2)
        k4 = matvec(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


class TestLiftedExactRunner:
    def test_stepping_matches_direct_evolution(self):
        # Weighted 8x8 scatterer: stepped by dt, recovered in original variables.
        spec = GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox(lo=(2, 2), hi=(6, 6)))
        a = assemble_generator(spec)
        w = symmetrizing_weights(spec)
        reg = PRegister(n_a=2)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        pair = hermitian_split(a, w)
        runner = LiftedExactRunner(pair, u0, reg, 0.1)
        psi0, norm = runner.psi, runner.norm
        for s in (1, 4, 15):
            runner.advance(s - runner.steps_done)
            got = runner.recover()
            v = evolve_lifted_exact(pair, reg, psi0, s * 0.1)
            want = recover_solution(v, reg, pair, s * 0.1, norm, u0.layout)
            assert got.time == s * 0.1
            assert np.max(np.abs(got.values - want.values)) <= 1e-12

    def test_recovery_undoes_weights(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        runner = LiftedExactRunner(hermitian_split(a, symmetrizing_weights(spec)), u0, PRegister(n_a=1), 0.1)
        assert np.max(np.abs(runner.recover().values - u0.values)) <= 1e-12

    def test_unweighted_readout_scales_are_uniform(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        runner = LiftedExactRunner(hermitian_split(assemble_generator(spec)), u0, PRegister(n_a=2), 0.1)
        runner.advance(1)
        amps, scales = runner.readout()
        scale = math.exp(runner.reg.p_star) * runner.norm
        assert scales.tobytes() == np.full(amps.shape, scale).tobytes()

    def test_negative_steps_refused_with_state_and_clock_kept(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        runner = LiftedExactRunner(hermitian_split(assemble_generator(spec)), u0, PRegister(n_a=1), 0.1)
        runner.advance(2)
        psi = runner.psi.copy()
        with pytest.raises(ConfigError):
            runner.advance(-2)
        assert runner.steps_done == 2
        assert runner.psi.tobytes() == psi.tobytes()


class TestEvolveLiftedExact:
    def test_differentiation_matrix_convention(self):
        # The joint-generator helper itself: spectral d/dp must be exact on
        # resolved waves of the periodic window.
        reg = PRegister(n_a=4, p_min=-math.pi, p_max=math.pi)
        n = reg.n_points
        fwd = np.fft.ifft(np.eye(n), axis=0)
        inv = np.fft.fft(np.eye(n), axis=0)
        d_p = inv @ np.diag(-1j * reg.xi_values) @ fwd
        p = reg.p_values
        assert np.allclose(d_p @ np.sin(p), np.cos(p), atol=1e-12)
        assert np.allclose(d_p @ np.cos(3 * p), -3 * np.sin(3 * p), atol=1e-12)

    def test_t_zero_identity(self):
        rng = np.random.default_rng(4)
        pair = hermitian_split(random_generator(6, rng))
        reg = PRegister(n_a=2)
        v0 = rng.standard_normal(4 * 6) + 1j * rng.standard_normal(4 * 6)
        assert np.allclose(evolve_lifted_exact(pair, reg, v0, 0.0), v0, atol=1e-12)

    def test_h1_zero_no_p_mixing(self):
        rng = np.random.default_rng(5)
        a = random_generator(6, rng)
        a = a - a.T
        pair = hermitian_split(a)
        reg = PRegister(n_a=2)
        v0 = rng.standard_normal(4 * 6)
        out = evolve_lifted_exact(pair, reg, v0, 0.7)
        u = expm(1j * 0.7 * pair.h2.toarray())
        expected = (u @ v0.reshape(4, 6).T).T.reshape(-1)
        assert np.allclose(out, expected, atol=1e-10)

    def test_branch_unitarity(self):
        rng = np.random.default_rng(6)
        pair = hermitian_split(random_generator(8, rng))
        for xi in (-2.0, 0.0, 0.5, 3.7):
            u = expm(1j * 1.3 * lifted_hamiltonian(pair, xi).toarray())
            w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert abs(np.linalg.norm(u @ w) - np.linalg.norm(w)) < 1e-10

    def test_against_joint_rk4_integrator(self):
        # 2D 4x4 generator, lifted with two auxiliary qubits, t = 0.5.
        spec = GridSpec(nx=4, ny=4, dim=2)
        pair = hermitian_split(assemble_generator(spec))
        reg = PRegister(n_a=2)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        v0 = LiftedRunner(pair, u0, reg, 0.5).psi
        v_spec = evolve_lifted_exact(pair, reg, v0, 0.5)
        g = joint_generator(pair, reg)
        v_rk4 = rk4(lambda v: g @ v, v0, 0.5, 400)
        rel = np.linalg.norm(v_spec - v_rk4) / np.linalg.norm(v_rk4)
        assert rel < 1e-3

    def test_against_fine_upwind_integrator(self):
        # First-order upwind transport in the eigenbasis of the symmetric
        # part, on the same periodic window at high resolution; checks the
        # transport physics rather than the spectral discretization.
        spec = GridSpec(nx=4, ny=4, dim=2)
        pair = hermitian_split(assemble_generator(spec))
        reg = PRegister(n_a=8)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        t = 0.5
        v0 = LiftedRunner(pair, u0, reg, t).psi
        v_spec = evolve_lifted_exact(pair, reg, v0, t).reshape(reg.n_points, -1)

        h1 = pair.h1.toarray()
        lam, q = np.linalg.eigh(h1)
        h2r = q.T @ pair.h2.toarray() @ q
        w = (v0.reshape(reg.n_points, -1) @ q).astype(complex)
        dp = reg.dp
        dt = 0.2 * dp / max(np.max(np.abs(lam)), 1e-12)
        steps = int(np.ceil(t / dt))
        dt = t / steps

        def rhs(w):
            back = (w - np.roll(w, 1, axis=0)) / dp
            fwd = (np.roll(w, -1, axis=0) - w) / dp
            dw = np.where(lam[None, :] > 0, back, fwd)
            return -lam[None, :] * dw + 1j * (w @ h2r.T)

        for _ in range(steps):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * dt * k1)
            k3 = rhs(w + 0.5 * dt * k2)
            k4 = rhs(w + dt * k3)
            w = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v_up = w @ q.T
        rel = np.linalg.norm(v_spec - v_up) / np.linalg.norm(v_up)
        assert rel < 0.05


class TestRecovery:
    def test_recovery_bound_is_above_lambda_max(self):
        # At t = 1 (the horizon cap) the bound is the lambda_max(h1) factor itself.
        rng = np.random.default_rng(7)
        for n in (2, 5, 12, 40):
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            assert recovery_bound(hermitian_split(m), 1.0) >= np.linalg.eigvalsh(m)[-1]
        from qmaxwell.scenarios import scenario_2d_empty

        pair = hermitian_split(assemble_generator(scenario_2d_empty(8, 8).spec))
        lam = np.linalg.eigvalsh(pair.h1.real.toarray())[-1]
        assert lam > 0.7
        assert recovery_bound(pair, 1.0) >= lam

    def test_recover_at_t_zero(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        pair = hermitian_split(assemble_generator(spec))
        reg = PRegister(n_a=2)
        u0 = pack_initial_condition(spec, [(Component.EZ, 1, 2, 0, 1.0)])
        rec = LiftedExactRunner(pair, u0, reg, 0.1).recover()
        assert np.max(np.abs(rec.values - u0.values)) < 1e-10

    def test_h1_zero_recovery_exact(self):
        rng = np.random.default_rng(8)
        a = random_generator(8, rng)
        a = a - a.T
        pair = hermitian_split(a)
        assert skew_defect(as_csr(a)) < 1e-14
        reg = PRegister(n_a=1)
        u0 = rng.standard_normal(8)
        for t in (0.5, 1.0, 2.0):
            runner = LiftedExactRunner(pair, flat_state(u0), reg, t)
            runner.advance(1)
            exact = expm(a * t) @ u0
            assert np.linalg.norm(runner.recover().values - exact) < 1e-10

    def test_2d_recovery_error_band(self):
        # Non-normal boundary part present: recovery is approximate; the
        # band reflects the auxiliary-grid coarseness and is logged here.
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        pair = hermitian_split(a)
        reg = PRegister(n_a=3)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        runner = LiftedExactRunner(pair, u0, reg, 1.0)
        runner.advance(1)
        rec = runner.recover().values
        exact = expm(a.toarray() * 1.0) @ u0.values
        rel = np.linalg.norm(rec - exact) / np.linalg.norm(exact)
        print(f"recovery error (4x4, n_a=3, t=1): {rel:.3e}")
        assert rel < 5e-2

    def test_infeasible_window_reports_requirement(self):
        pair = hermitian_split(np.diag([0.0, 0.0]) + 5.0 * np.eye(2))
        reg = PRegister(n_a=1)
        v = np.ones(4, dtype=complex)
        with pytest.raises(RecoveryInfeasibleError) as e:
            recover_solution(v, reg, pair, 10.0, 1.0, FlatLayout(2))
        assert e.value.required_p > reg.p_values[-1]

    def test_lsq_mode_matches_single_when_exact(self):
        rng = np.random.default_rng(9)
        a = random_generator(6, rng)
        a = a - a.T
        pair = hermitian_split(a)
        reg = PRegister(n_a=2)
        u0 = rng.standard_normal(6)
        runner = LiftedExactRunner(pair, flat_state(u0), reg, 0.8)
        runner.advance(1)
        r1 = runner.recover()
        runner.reg = dataclasses.replace(reg, recovery="lsq")
        r2 = runner.recover()
        assert np.linalg.norm(r1.values - r2.values) < 1e-9

    def test_recovery_bound_uses_positive_part(self):
        pair = hermitian_split(-3.0 * np.eye(4))
        assert recovery_bound(pair, 2.0) == 0.0

    def test_layout_wrapping(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        pair = hermitian_split(assemble_generator(spec))
        reg = PRegister(n_a=1)
        layout = FieldLayout(spec)
        u0 = pack_initial_condition(spec, [(Component.EZ, 1, 1, 0, 1.0)])
        runner = LiftedRunner(pair, u0, reg, 0.1)
        rec = recover_solution(runner.psi, reg, pair, 0.0, runner.norm, layout)
        assert rec.layout is layout and rec.time == 0.0
        assert abs(rec.at(Component.EZ, 1, 1) - 1.0) < 1e-10


@pytest.mark.parametrize(
    "kw",
    [dict(n_a=0), dict(n_a=1, recovery="foo")],
    ids=["no-auxiliary-qubit", "unknown-recovery"],
)
def test_pregister_refusals(kw):
    with pytest.raises(ValueError):
        PRegister(**kw)
