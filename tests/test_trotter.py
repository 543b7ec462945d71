import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qmaxwell.bell import compile_blocks
from qmaxwell.circuit import FOURIER, MCRZ, Circuit, apply_gate, gate_stats, simulate
from qmaxwell.errors import ConfigError
from qmaxwell.grid import Component, GridSpec, pack_initial_condition
from qmaxwell.lifting import (
    HermitianPair,
    LiftedExactRunner,
    PRegister,
    evolve_lifted_exact,
    hermitian_split,
)
from qmaxwell.operators import assemble_generator, symmetrizing_weights
from qmaxwell.scenarios import build_scenario
from qmaxwell.trotter import (
    TrotterRunner,
    amplitude_prep_gates,
    ancilla_prep_gates,
    emit_trotter_circuit,
    step_gates,
    xi_bit_scales,
)
import scipy.sparse as sp

from helpers import circuit_unitary, walked_stats


def skew(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


def sym(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


class TestXiBitScales:
    @pytest.mark.parametrize("n_a", [1, 2, 3])
    def test_bits_reproduce_fft_frequencies(self, n_a):
        reg = PRegister(n_a=n_a)
        scales = xi_bit_scales(reg)
        for l in range(reg.n_points):
            xi = sum(s for j, s in enumerate(scales) if (l >> j) & 1)
            assert np.isclose(xi, reg.xi_values[l])


class TestAncillaPrep:
    def test_single_qubit_symmetric_profile_is_one_gate(self):
        reg = PRegister(n_a=1)
        gates = ancilla_prep_gates(reg, n_sys=2)
        assert len(gates) == 1 and gates[0].kind == "superpose"

    @pytest.mark.parametrize("n_a", [1, 2, 3])
    def test_profile_prepared_exactly(self, n_a):
        reg = PRegister(n_a=n_a, p_min=-3.0, p_max=3.0)
        gates = ancilla_prep_gates(reg, n_sys=0)
        psi = simulate(Circuit(n_a, tuple(gates)), np.eye(1 << n_a)[0])
        amps = np.exp(-np.abs(reg.p_values))
        amps /= np.linalg.norm(amps)
        assert np.linalg.norm(psi - amps) < 1e-12

    def test_general_amplitude_tree(self):
        rng = np.random.default_rng(0)
        amps = rng.random(8) + 0.05
        amps /= np.linalg.norm(amps)
        gates = amplitude_prep_gates(amps, offset=0)
        psi = simulate(Circuit(3, tuple(gates)), np.eye(8)[0])
        assert np.linalg.norm(psi - amps) < 1e-12


# Gate emission of one step, pinned by gate count and the sha256 of its gate tuples.
PINNED_STEPS = [
    ("2d-empty", 8, False, 1, 198, "53f9680194774ab3a39c5f4320054c5f49555e4268444d68aac08e2c58912d3e"),
    ("2d-empty", 8, False, 3, 206, "c3a71ad41a34642e7c146f907d550e1aab15d954efc4aaf7b427c06ce0c43af2"),
    ("2d-empty", 8, True, 1, 168, "3c3310b370ea3ea0281678090604a60d9142cc63aea65a4b7c5d72a21e70786e"),
    ("2d-empty", 8, True, 3, 168, "3c3310b370ea3ea0281678090604a60d9142cc63aea65a4b7c5d72a21e70786e"),
    ("2d-scatterer", 8, False, 1, 623, "c5b7dac6c6d535851426f1e82db9e33e99c0c1743119383a588562ecd9eabccf"),
    ("2d-scatterer", 8, False, 3, 647, "3f38b99a080b21854ca8bac7c6baf90df5e4d533c86faa750ddda31ae69dff41"),
    ("2d-scatterer", 8, True, 1, 595, "2e7422b8e2f14975862182923869987aed8704946e2aba6b5be73c9de4aa83c9"),
    ("2d-scatterer", 8, True, 3, 611, "61087ef501da97fed41b4a7ce825db244280b53a90dc0eaabd558951b6aca584"),
    ("3d-empty", 4, False, 1, 994, "287d6edfba7fcc270e463ffc36b5c6a441696d9c5ca06f865b329aafa28b0f21"),
    ("3d-empty", 4, False, 3, 1052, "4fea387070019ec2c8a9f56e677025122361334981219f69a76aae48250aef39"),
    ("3d-empty", 4, True, 1, 767, "5aa6d75baa910163f608ceda7dd4f30e5a6e6eebe928e709bf640d58bab28b60"),
    ("3d-empty", 4, True, 3, 767, "5aa6d75baa910163f608ceda7dd4f30e5a6e6eebe928e709bf640d58bab28b60"),
]


# sha256 of the statevector bytes: the runner after five steps and the emitted
# two-step circuit, at dt 0.1.  ``tobytes`` also tells a signed zero apart.
PINNED_STATES = [
    ("2d-empty", 8, False, 1,
     "94b322a809165e3fa33a0b1d1e6e7d565b1730f6f66e72768a365fa2212d60d4",
     "01b0d962f703bcaf0797c469a0ca695677d85acc3666065f4a85e86b312ded36"),
    ("2d-empty", 8, False, 3,
     "5d7413bfbfb52d857305cf0e451e25494d0b2880e4e544fc52ffa87e27e78437",
     "1aa711fb89b6815a1ab64d670acd4b3b14863729277c575680b66121a8b03b13"),
    ("2d-empty", 8, True, 1,
     "90ffedb514fa58de795f6e9c9f28e155fa8f61d3e4cffcf7e286cd8219c12b94",
     "2046f2a33c3d0cfb63e44ff342b47077e870ead6b43bc944bb7e23b4d341e548"),
    ("2d-empty", 8, True, 3,
     "ff9bba67625c7c46a4c1d51853da0bd6c0517b5d94747bf971d97cb81fca1c72",
     "12b48b28991e15650cb253eac80917fcc2009f37416e1527ebbde70978a26aa2"),
    ("2d-scatterer", 8, False, 1,
     "c8eadd3dbb21a745e2a11075bad53a169bc3fb50b1b8913eb2b49b617dffe4c8",
     "4e79fadd1bdef9f66722a3f14177c8bc7de6abe0506af0bc8b744f043a77c18f"),
    ("2d-scatterer", 8, False, 3,
     "4836ceabf165066c1da4c54c643972f00ff9fa45737c5c3cd6576866d8793014",
     "a00ef8d624e17d52091309e74f97129e3db2683c343404722c0a67160f2d0705"),
    ("2d-scatterer", 8, True, 1,
     "99c5a1bb670a06a87373529b6520b38ea6aec0ed20df32577613664299c6155d",
     "3f44c23152995129bf07533453ea5bfd80c53c4fbab7ab02b022b6f9bd9d5e0e"),
    ("2d-scatterer", 8, True, 3,
     "3a7a63044995a49f631d9cca727b431e69da3ec41805efda00cbeb6d50ceab62",
     "9065c6c7f3fdb0f62c567b7e335852ac83901a5e110e25c1f2c6fe529ecd2e86"),
    ("3d-empty", 4, False, 1,
     "51e7f544516c055cd6930d2cc3a772b3c5fa554a8521987ba9bc94b7af6bc011",
     "bd44cdab163b7fdfda77ecb7272c49193c3bfb87ef6bb4acf7e2dbddaf096eaf"),
    ("3d-empty", 4, False, 3,
     "b806dd5571c0ef124e8251d5ae1911d6efa58c96f51da2b081adb69fb6bfa01e",
     "901d4c556269926b223f2241ffbb55788bd4cd59edfa8aa4060b3e8d26da1c25"),
    ("3d-empty", 4, True, 1,
     "5577c460d7aa624bef9bf0aff1fe351ad62271dc0e8d50eae33cbb8f2d6cc99f",
     "2d0a23112a30c7756012ba537740d8f43935d6e9027146565be25377d902cf25"),
    ("3d-empty", 4, True, 3,
     "6ab39031f6661cc492c5e42fe59104244f3ab65bbdbe5601348cc59f57797a67",
     "22ef54681edd6ae445bd99d10aa20000cae76e17d3d928fb0554cd391806ba7c"),
]


class TestStepStructure:
    def test_h1_zero_has_no_ancilla_coupling(self):
        rng = np.random.default_rng(1)
        pair = hermitian_split(skew(rng, 4))
        blocks2 = compile_blocks(pair.h2)
        gates = step_gates([], blocks2, PRegister(n_a=1), n_sys=2, dt=0.1)
        assert all(g.kind != FOURIER for g in gates)
        assert all(max(g.qubits) < 2 for g in gates)

    @pytest.mark.parametrize("name, nx, weighted, n_a, count, digest", PINNED_STEPS)
    def test_step_gates_pinned(self, name, nx, weighted, n_a, count, digest):
        spec = build_scenario(name, nx=nx).spec
        weights = symmetrizing_weights(spec) if weighted else None
        pair = hermitian_split(assemble_generator(spec), weights)
        gates = step_gates(*pair.blocks, PRegister(n_a), int(math.log2(pair.dim)), 0.1)
        emitted = repr([
            (g.kind, g.qubits, None if g.angle is None else float(g.angle), g.polarities, g.inverse)
            for g in gates
        ])
        assert len(gates) == count
        assert hashlib.sha256(emitted.encode()).hexdigest() == digest

    def test_step_size_scales_only_the_rotation_angles(self):
        # Blocks hold no dt: at twice the step every mcrz angle doubles
        # exactly and every other gate is unchanged.
        spec = build_scenario("2d-scatterer", nx=8).spec
        pair = hermitian_split(assemble_generator(spec), symmetrizing_weights(spec))
        h1, h2 = pair.blocks
        n_sys, reg, dt = int(math.log2(pair.dim)), PRegister(3), 0.1
        once, twice = step_gates(h1, h2, reg, n_sys, dt), step_gates(h1, h2, reg, n_sys, 2 * dt)
        assert len(once) == len(twice)
        rotations = 0
        for g, h in zip(once, twice):
            if g.kind == MCRZ:
                assert h == dataclasses.replace(g, angle=2 * g.angle)
                rotations += 1
            else:
                assert h == g
        assert rotations > 0

    def test_pure_h1_step_is_exact(self):
        # With no skew part, one step equals the exact lifted propagator:
        # the per-bit factors commute, so there is no splitting error.
        rng = np.random.default_rng(2)
        h1 = sym(rng, 4) * 0.2
        np.fill_diagonal(h1, 0.0)  # diagonal strings have no block
        pair = HermitianPair(
            h1=sp.csr_matrix(h1), h2=sp.csr_matrix((4, 4), dtype=complex), weights=np.ones(4)
        )
        dt = 0.3
        blocks1 = compile_blocks(pair.h1)
        for n_a in (1, 2):
            reg = PRegister(n_a=n_a)
            gates = step_gates(blocks1, [], reg, n_sys=2, dt=dt)
            u = circuit_unitary(Circuit(2 + n_a, tuple(gates)))
            v0 = rng.standard_normal(reg.n_points * 4)
            expected = evolve_lifted_exact(pair, reg, v0, dt)
            got = u @ v0.astype(complex)
            # Blocks of h1 do not commute with each other; only the
            # ancilla-bit factors are exact.  Use a single-block h1 to pin
            # exactness: here h1 has several blocks, so allow first-order
            # error; the single-block case is below.
            assert np.linalg.norm(got - expected) < 0.5 * dt

    def test_single_pair_h1_step_matches_exactly(self):
        h1 = np.zeros((4, 4))
        h1[1, 2] = h1[2, 1] = 0.7  # one adjoint pair only
        pair = HermitianPair(
            h1=sp.csr_matrix(h1), h2=sp.csr_matrix((4, 4), dtype=complex), weights=np.ones(4)
        )
        dt = 0.25
        blocks1 = compile_blocks(pair.h1)
        assert len(blocks1) == 1
        reg = PRegister(n_a=2)
        gates = step_gates(blocks1, [], reg, n_sys=2, dt=dt)
        u = circuit_unitary(Circuit(2 + reg.n_a, tuple(gates)))
        rng = np.random.default_rng(3)
        v0 = rng.standard_normal(reg.n_points * 4)
        expected = evolve_lifted_exact(pair, reg, v0, dt)
        assert np.linalg.norm(u @ v0.astype(complex) - expected) < 1e-10

    def test_pure_h2_single_pair_step_exact(self):
        h2 = np.zeros((4, 4), dtype=complex)
        h2[0, 3] = 1j
        h2[3, 0] = -1j
        pair = HermitianPair(h1=sp.csr_matrix((4, 4)), h2=sp.csr_matrix(h2), weights=np.ones(4))
        dt = 0.4
        blocks2 = compile_blocks(pair.h2)
        gates = step_gates([], blocks2, PRegister(n_a=1), n_sys=2, dt=dt)
        u = circuit_unitary(Circuit(2, tuple(gates)))
        assert np.linalg.norm(u - expm(1j * dt * h2)) < 1e-12


class TestPinnedStates:
    @pytest.mark.parametrize(
        "name, nx, weighted, n_a, runner_digest, circuit_digest",
        PINNED_STATES,
        ids=["-".join(map(str, row[:4])) for row in PINNED_STATES],
    )
    def test_statevector_bytes_pinned(self, name, nx, weighted, n_a, runner_digest, circuit_digest):
        scenario = build_scenario(name, nx=nx)
        a = assemble_generator(scenario.spec)
        w = symmetrizing_weights(scenario.spec) if weighted else None
        reg = PRegister(1) if n_a == 1 else PRegister(3, -4.0, 4.0)
        u0 = pack_initial_condition(scenario.spec, scenario.impulses)
        runner = TrotterRunner.from_generator(a, u0, reg, 0.1, w)
        runner.advance(5)
        c = emit_trotter_circuit(hermitian_split(a, w), reg, 2, 0.1)
        psi0 = np.zeros(1 << c.n_qubits, dtype=complex)
        psi0[: len(u0.values)] = u0.values / np.linalg.norm(u0.values)
        assert hashlib.sha256(runner.psi.tobytes()).hexdigest() == runner_digest
        assert hashlib.sha256(simulate(c, psi0).tobytes()).hexdigest() == circuit_digest


def pinned_runner(name, nx, weighted, n_a):
    """The runner of a ``PINNED_STATES`` row, before any step."""
    scenario = build_scenario(name, nx=nx)
    a = assemble_generator(scenario.spec)
    w = symmetrizing_weights(scenario.spec) if weighted else None
    reg = PRegister(1) if n_a == 1 else PRegister(3, -4.0, 4.0)
    u0 = pack_initial_condition(scenario.spec, scenario.impulses)
    return TrotterRunner.from_generator(a, u0, reg, 0.1, w)


class TestChunkedStepping:
    @pytest.mark.parametrize(
        "name, nx, weighted, n_a",
        [
            ("2d-scatterer", 8, True, 1),
            ("2d-scatterer", 8, True, 3),
            ("2d-scatterer", 8, False, 1),
            ("2d-scatterer", 8, False, 3),
            ("3d-empty", 4, True, 1),
        ],
    )
    def test_chunks_and_gate_loop_give_the_same_bytes(self, name, nx, weighted, n_a):
        # One advance(12), twelve advance(1) and a per-gate apply_gate loop.
        whole, stepped = pinned_runner(name, nx, weighted, n_a), pinned_runner(name, nx, weighted, n_a)
        psi = whole.psi
        whole.advance(12)
        for _ in range(12):
            stepped.advance(1)
        for _ in range(12):
            for g in stepped.step_circuit.gates:
                psi = apply_gate(psi, g)
        assert whole.steps_done == stepped.steps_done == 12
        assert whole.psi.tobytes() == stepped.psi.tobytes() == psi.tobytes()

    def test_held_arrays_survive_a_later_advance(self):
        runner = pinned_runner("2d-scatterer", 8, True, 3)
        runner.advance(2)
        psi, (amps, scales), field = runner.psi, runner.readout(), runner.recover()
        held = [x.copy() for x in (psi, amps, scales, field.values)]
        runner.advance(3)
        for kept, now in zip(held, (psi, amps, scales, field.values)):
            assert kept.tobytes() == now.tobytes()
        assert not np.shares_memory(runner.psi, psi)

    def test_negative_steps_refused_with_state_and_clock_kept(self):
        runner = pinned_runner("2d-scatterer", 8, True, 1)
        runner.advance(2)
        psi = runner.psi.copy()
        with pytest.raises(ConfigError):
            runner.advance(-2)
        assert runner.steps_done == 2
        assert runner.psi.tobytes() == psi.tobytes()


class TestEmittedCircuit:
    def test_zero_steps_prepares_lifted_state(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        pair = hermitian_split(a)
        reg = PRegister(n_a=2)
        dt = 0.1
        c = emit_trotter_circuit(pair, reg, 0, dt)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 1, 0, 1.0)])
        sys_state = u0.values / np.linalg.norm(u0.values)
        psi0 = np.zeros(1 << c.n_qubits, dtype=complex)
        psi0[: len(sys_state)] = sys_state
        out = simulate(c, psi0)
        assert np.linalg.norm(out - LiftedExactRunner(pair, u0, reg, dt).psi) < 1e-12

    def test_runner_matches_emitted_circuit(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        reg = PRegister(n_a=1)
        dt, steps = 0.1, 4
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        runner = TrotterRunner.from_generator(a, u0, reg, dt)
        runner.advance(steps)
        c = emit_trotter_circuit(runner.pair, reg, steps, dt)
        sys_state = u0.values / np.linalg.norm(u0.values)
        psi0 = np.zeros(1 << c.n_qubits, dtype=complex)
        psi0[: len(sys_state)] = sys_state
        out = simulate(c, psi0)
        assert np.linalg.norm(out - runner.psi) < 1e-10

    def test_compile_generator_gives_the_runner_blocks(self):
        from qmaxwell.grid import ScattererBox
        from qmaxwell.operators import symmetrizing_weights

        spec = GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox(lo=(2, 2), hi=(6, 6)))
        a = assemble_generator(spec)
        w = symmetrizing_weights(spec)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        runner = TrotterRunner.from_generator(a, u0, PRegister(n_a=1), 0.1, weights=w)
        pair = hermitian_split(a, w)
        assert pair.blocks == runner.pair.blocks
        assert (pair.h1 != runner.pair.h1).nnz == 0 and (pair.h2 != runner.pair.h2).nnz == 0

    def test_pair_compiles_its_blocks_once(self, monkeypatch):
        # Two runners at different dt and an emitted circuit share one compile
        # of h1 and h2; a lifted-exact runner never compiles.
        import qmaxwell.lifting as lifting

        compiled = []
        real = lifting.compile_blocks
        monkeypatch.setattr(lifting, "compile_blocks", lambda h: compiled.append(h) or real(h))
        spec = GridSpec(nx=4, ny=4, dim=2)
        a, reg = assemble_generator(spec), PRegister(n_a=1)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        pair = hermitian_split(a, symmetrizing_weights(spec))
        TrotterRunner(pair, u0, reg, 0.1)
        TrotterRunner(pair, u0, reg, 0.05)
        emit_trotter_circuit(pair, reg, 2, 0.1)
        assert len(compiled) == 2
        LiftedExactRunner(hermitian_split(a), u0, reg, 0.1).advance(1)
        assert len(compiled) == 2

    def test_first_order_error_scaling(self):
        # Distance to the exact lifted evolution scales like t*dt.
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        reg = PRegister(n_a=1)
        u0 = pack_initial_condition(spec, [(Component.EZ, 2, 2, 0, 1.0)])
        t = 1.0
        errs = {}
        for dt in (0.1, 0.05, 0.025):
            runner = TrotterRunner.from_generator(a, u0, reg, dt)
            runner.advance(round(t / dt))
            ref = LiftedExactRunner(runner.pair, u0, reg, t)
            ref.advance(1)
            errs[dt] = np.linalg.norm(runner.psi - ref.psi)
        print(f"joint-state trotter errors: {errs}")
        r1 = errs[0.1] / errs[0.05]
        r2 = errs[0.05] / errs[0.025]
        assert 1.6 < r1 < 2.4
        assert 1.6 < r2 < 2.4


class TestGateStats:
    @pytest.mark.parametrize(
        "name, weighted, n_a",
        [("2d-empty", True, 1), ("2d-scatterer", True, 1), ("3d-empty", True, 1),
         ("2d-scatterer", False, 3)],
    )
    def test_step_circuit_matches_independent_walk(self, name, weighted, n_a):
        sc = build_scenario(name)
        pair = hermitian_split(
            assemble_generator(sc.spec), symmetrizing_weights(sc.spec) if weighted else None
        )
        n_sys = int(math.log2(pair.dim))
        c = Circuit(n_sys + n_a, tuple(step_gates(*pair.blocks, PRegister(n_a), n_sys, sc.dt)))
        assert gate_stats(c) == walked_stats(c)

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_counts_add_up_over_steps(self, steps):
        # Preparation plus ``steps`` copies of one step, count for count.
        sc = build_scenario("2d-scatterer", nx=8)
        pair = hermitian_split(assemble_generator(sc.spec), symmetrizing_weights(sc.spec))
        reg, n_sys = PRegister(n_a=3), int(math.log2(pair.dim))
        n = n_sys + reg.n_a
        prep = gate_stats(Circuit(n, tuple(ancilla_prep_gates(reg, n_sys))))
        step = gate_stats(Circuit(n, tuple(step_gates(*pair.blocks, reg, n_sys, sc.dt))))
        full = gate_stats(emit_trotter_circuit(pair, reg, steps, sc.dt))
        assert prep["two_qubit_count"] > 0 and step["two_qubit_count"] > 0
        for key in ("two_qubit_count", "single_qubit_count"):
            assert full[key] == prep[key] + steps * step[key]
