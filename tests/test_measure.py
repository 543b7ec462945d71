import math

import numpy as np
import pytest

from qmaxwell.errors import RecoveryInfeasibleError
from qmaxwell.grid import (
    Boundaries,
    Component,
    FieldLayout,
    GridSpec,
    pack_initial_condition,
)
from qmaxwell.lifting import LiftedExactRunner, PRegister, hermitian_split
from qmaxwell.measure import (
    MagnitudeEstimate,
    ProbeRequest,
    apply_offset,
    magnitude_at,
    offset_bound,
    pipeline_state,
    relative_sign,
    remove_offset,
    signed_field_at,
    unit_offset_state,
)
from qmaxwell.operators import assemble_generator, symmetrizing_weights
from qmaxwell.oracle import exact_evolution
from qmaxwell.scenarios import build_scenario
from qmaxwell.trotter import TrotterRunner


def impulse_state(spec, i, j, amp=1.0):
    return pack_initial_condition(spec, [(Component.EZ, i, j, 0, amp)])


class TestOffset:
    def test_positive_required(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = impulse_state(spec, 2, 2)
        with pytest.raises(ValueError):
            apply_offset(u0, Component.EZ, 0.0)

    def test_bound_equality_warns(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = impulse_state(spec, 2, 2)
        assert offset_bound(u0) == 1.0
        with pytest.warns(UserWarning):
            shifted = apply_offset(u0, Component.EZ, 1.0)
        ez = shifted.component(Component.EZ)
        assert ez.min() == 1.0 and ez.max() == 2.0

    def test_only_target_component_shifted(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = impulse_state(spec, 2, 2)
        with pytest.warns(UserWarning):
            shifted = apply_offset(u0, Component.EZ, 1.0)
        assert not shifted.component(Component.HX).any()
        assert not shifted.component(Component.HY).any()

    def test_pads_not_shifted(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = impulse_state(spec, 1, 1)
        shifted = apply_offset(u0, Component.HX, 5.0)
        hx = shifted.component(Component.HX)[0]
        assert not hx[3, :].any()  # padded line stays zero
        assert np.all(hx[:3, :] == 5.0)

    def test_superposition_of_evolutions(self):
        # evolve(u0 + c*shift) = evolve(u0) + c*evolve(shift), exactly.
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        u0 = impulse_state(spec, 2, 1)
        shifted = apply_offset(u0, Component.EZ, 2.0)
        t = 1.3
        lhs = exact_evolution(a, shifted, t)
        rhs = exact_evolution(a, u0, t).values + 2.0 * exact_evolution(
            a, unit_offset_state(u0.layout, Component.EZ), t
        ).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10

    def test_uniform_shift_static_under_pmc(self):
        spec = GridSpec(nx=8, ny=8, dim=2)
        a = assemble_generator(spec)
        ones = unit_offset_state(FieldLayout(spec), Component.EZ)
        assert np.max(np.abs(a @ ones.values)) == 0.0

    def test_uniform_shift_evolves_under_pec_edge(self):
        spec = GridSpec(nx=8, ny=8, dim=2, boundaries=Boundaries(xlo="pec"))
        a = assemble_generator(spec)
        ones = unit_offset_state(FieldLayout(spec), Component.EZ)
        assert np.max(np.abs(a @ ones.values)) > 0.1

    def test_remove_offset_at_t_zero(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = impulse_state(spec, 2, 2)
        shifted = apply_offset(u0, Component.EZ, 3.0)
        response = unit_offset_state(u0.layout, Component.EZ)
        restored = remove_offset(shifted, 3.0, response)
        assert np.max(np.abs(restored.values - u0.values)) == 0.0

    def test_remove_offset_time_mismatch(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        u0 = impulse_state(spec, 2, 2)
        a = assemble_generator(spec)
        evolved = exact_evolution(a, u0, 1.0)
        response = unit_offset_state(u0.layout, Component.EZ)  # t = 0
        with pytest.raises(ValueError):
            remove_offset(evolved, 1.0, response)


class TestMagnitude:
    def test_basis_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[5] = 1.0
        est = magnitude_at(psi[4:], flat_index=1, scale=2.5)
        assert est.value == 2.5
        assert est.shots_used == "exact"

    def test_uniform_state(self):
        psi = np.full(4, 0.5, dtype=complex)
        est = magnitude_at(psi, 3, scale=2.0)
        assert est.value == pytest.approx(1.0)

    def test_shot_estimate_near_exact(self):
        psi = np.zeros(4, dtype=complex)
        psi[1] = 0.3
        psi[0] = math.sqrt(1 - 0.09)
        rng = np.random.default_rng(5)
        est = magnitude_at(psi, 1, scale=1.0, shots=1 << 16, rng=rng)
        assert est.shots_used == 1 << 16
        assert abs(est.value - 0.3) < 4 * est.stderr


class TestRelativeSign:
    def make_state(self, a_ref, a_t):
        psi = np.zeros(4, dtype=complex)
        psi[0] = a_ref
        psi[1] = a_t
        rest = 1.0 - abs(a_ref) ** 2 - abs(a_t) ** 2
        psi[3] = math.sqrt(max(rest, 0.0))
        return psi

    def test_same_sign(self):
        psi = self.make_state(0.5, 0.3)
        assert relative_sign(psi, 0, 1) == 1

    def test_opposite_sign(self):
        psi = self.make_state(0.4, -0.4)
        assert relative_sign(psi, 0, 1) == -1

    def test_global_phase_ignored(self):
        phase = np.exp(1j * 1.1)
        psi = self.make_state(0.4, -0.4) * phase
        assert relative_sign(psi, 0, 1) == -1

    def test_exact_tie_indeterminate(self):
        psi = self.make_state(0.5, 0.0)
        assert relative_sign(psi, 0, 1) == 0

    def test_bad_phase_rejected(self):
        psi = self.make_state(0.5, 0.3 * np.exp(0.5j))
        assert relative_sign(psi, 0, 1) == 0

    def test_vanishing_reference_indeterminate(self):
        psi = self.make_state(0.0, 0.3)
        assert relative_sign(psi, 0, 1) == 0
        rng = np.random.default_rng(0)
        assert relative_sign(psi, 0, 1, shots=256, rng=rng) == 0
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # no draw

    def test_shot_mode_indeterminate_when_small(self):
        psi = self.make_state(0.5, 1e-4)
        rng = np.random.default_rng(0)
        assert relative_sign(psi, 0, 1, shots=256, rng=rng) == 0

    def test_shot_mode_no_interference_counts_indeterminate(self):
        # Both outcomes draw 0 of 100 shots: no evidence for either sign.
        psi = np.zeros(4, dtype=complex)
        psi[:3] = 0.999, 0.01, 0.01
        psi /= np.linalg.norm(psi)
        assert relative_sign(psi, 1, 2, shots=100, rng=np.random.default_rng(0)) == 0

    def test_shot_mode_decides_clear_gap(self):
        psi = self.make_state(0.6, -0.5)
        rng = np.random.default_rng(1)
        assert relative_sign(psi, 0, 1, shots=1 << 13, rng=rng) == -1

    def test_sign_chain_consistency(self):
        rng = np.random.default_rng(2)
        amps = rng.uniform(-1, 1, size=8)
        psi = (amps / np.linalg.norm(amps)).astype(complex)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    if len({a, b, c}) < 3:
                        continue
                    sab = relative_sign(psi, a, b)
                    sbc = relative_sign(psi, b, c)
                    sac = relative_sign(psi, a, c)
                    assert sab * sbc == sac


class TestSignedFieldPipeline:
    def build(self, t=1.0, dt=0.1, n=4, c=1.5):
        from qmaxwell.operators import symmetrizing_weights

        spec = GridSpec(nx=n, ny=n, dim=2)
        a = assemble_generator(spec)
        layout = FieldLayout(spec)
        u0 = impulse_state(spec, n // 2, n // 2)
        shifted = apply_offset(u0, Component.EZ, c)
        reg = PRegister(n_a=3)
        runner = TrotterRunner.from_generator(
            a, shifted, reg, dt, weights=symmetrizing_weights(spec)
        )
        runner.advance(round(t / dt))
        response = exact_evolution(a, unit_offset_state(layout, Component.EZ), t)
        ref = ProbeRequest(Component.EZ, n // 2, n // 2)
        pipe = pipeline_state(runner, c, response, ref)
        exact = exact_evolution(a, u0, t)
        return spec, pipe, exact

    def test_reference_probe_at_t_zero(self):
        spec, pipe, _ = self.build(t=0.0)
        reading = signed_field_at(pipe.reference, pipe)
        assert reading.value == pytest.approx(1.0, abs=1e-9)

    def test_probes_match_oracle_signs(self):
        spec, pipe, exact = self.build(t=1.0, dt=0.02)
        layout = pipe.layout
        # Signs are meaningful only above the reconstruction error floor
        # (splitting error plus lift bias); measure that floor first.
        readings = {}
        floor = 0.0
        for comp in layout.components:
            for j in range(spec.ny):
                for i in range(spec.nx):
                    if not layout.is_active(comp, i, j):
                        continue
                    reading = signed_field_at(ProbeRequest(comp, i, j), pipe)
                    readings[(comp, i, j)] = reading
                    floor = max(floor, abs(reading.value - exact.at(comp, i, j)))
        checked = 0
        for (comp, i, j), reading in readings.items():
            want = exact.at(comp, i, j)
            if abs(want) <= 2.0 * floor:
                continue
            assert reading.sign == (1 if want >= 0 else -1)
            checked += 1
        assert checked > 10


class TestRunnerReadout:
    """Probe readout through the lifted runner's recovery slice."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_lifted_exact_probes_equal_exact_flow(self, n):
        # Weighted 2d-empty is skew, so the lift is exact and so are the probes.
        spec = build_scenario("2d-empty", n, n).spec
        a = assemble_generator(spec)
        u0 = impulse_state(spec, n // 2, n // 2)
        c, t = 1.5, 1.0
        runner = LiftedExactRunner(
            hermitian_split(a, symmetrizing_weights(spec)), apply_offset(u0, Component.EZ, c),
            PRegister(n_a=1), 0.5,
        )
        runner.advance(2)
        response = exact_evolution(a, unit_offset_state(u0.layout, Component.EZ), t)
        ref = ProbeRequest(Component.EZ, n // 2, n // 2)
        pipe = pipeline_state(runner, c, response, ref)
        exact = exact_evolution(a, u0, t)
        layout = u0.layout
        worst, checked = 0.0, 0
        for comp in layout.components:
            for j in range(spec.ny):
                for i in range(spec.nx):
                    if layout.is_active(comp, i, j):
                        reading = signed_field_at(ProbeRequest(comp, i, j), pipe)
                        worst = max(worst, abs(reading.value - exact.at(comp, i, j)))
                        checked += 1
        assert checked == int(layout.active_mask().sum())
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "make",
        [lambda a, *rest: LiftedExactRunner(hermitian_split(a), *rest), TrotterRunner.from_generator],
        ids=["LiftedExactRunner", "from_generator"],
    )
    def test_recover_and_readout_share_one_guard(self, make):
        # p* = 0.5 equals the bound 0.5 at t = 0.5 on unweighted 2d-empty 4x4.
        spec = build_scenario("2d-empty", 4, 4).spec
        a = assemble_generator(spec)
        u0 = impulse_state(spec, 2, 2)
        runner = make(a, apply_offset(u0, Component.EZ, 1.5), PRegister(1, -1.0, 1.0), 0.5)
        runner.advance(1)
        with pytest.raises(RecoveryInfeasibleError) as rec:
            runner.recover()
        response = exact_evolution(a, unit_offset_state(u0.layout, Component.EZ), 0.5)
        with pytest.raises(RecoveryInfeasibleError) as probe:
            pipeline_state(runner, 1.5, response, ProbeRequest(Component.EZ, 2, 2))
        assert rec.value.required_p == probe.value.required_p == 0.5
        assert str(rec.value) == str(probe.value)


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_remove_offset_refuses_nonpositive_c(c):
    state = impulse_state(GridSpec(nx=4, ny=4), 1, 1)
    with pytest.raises(ValueError):
        remove_offset(state, c, state)
