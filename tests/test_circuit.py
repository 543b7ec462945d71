import dataclasses
import math

import numpy as np
import pytest

from qmaxwell.circuit import (
    CNOT,
    FOURIER,
    MCRZ,
    PHASE,
    SUPERPOSE,
    X,
    Circuit,
    Gate,
    apply_gate,
    gate_stats,
    lowered_gates,
    mcrz_lowering,
    mcx_gates,
    qft_gates,
    rz,
    simulate,
)
from qmaxwell.errors import QmaxwellError

from helpers import circuit_unitary, gates_unitary, walked_stats

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def dense_1q(mat, q, n):
    out = np.eye(1, dtype=complex)
    for k in range(n - 1, -1, -1):
        out = np.kron(out, mat if k == q else np.eye(2))
    return out


def dense_gate(g: Gate, n: int) -> np.ndarray:
    """Independent dense matrix for a gate, built by explicit index logic."""
    dim = 1 << n
    if g.kind == X:
        return dense_1q(_X, g.qubits[0], n)
    if g.kind == SUPERPOSE:
        return dense_1q(_H, g.qubits[0], n)
    if g.kind == PHASE:
        return dense_1q(np.diag([1.0, np.exp(1j * g.angle)]), g.qubits[0], n)
    u = np.zeros((dim, dim), dtype=complex)
    if g.kind == CNOT:
        c, t = g.qubits
        for i in range(dim):
            j = i ^ (((i >> c) & 1) << t)
            u[j, i] = 1.0
        return u
    if g.kind == MCRZ:
        for i in range(dim):
            ok = all(((i >> c) & 1) == p for c, p in zip(g.controls, g.polarities))
            if not ok:
                u[i, i] = 1.0
            else:
                sign = 1.0 if (i >> g.target) & 1 else -1.0
                u[i, i] = np.exp(0.5j * sign * g.angle)
        return u
    if g.kind == FOURIER:
        lo, m = g.qubits[0], len(g.qubits)
        f = np.fft.ifft(np.eye(1 << m), axis=0) * math.sqrt(1 << m)
        if g.inverse:
            f = f.conj().T
        return np.kron(np.kron(np.eye(1 << (n - lo - m)), f), np.eye(1 << lo))
    raise AssertionError(g.kind)


class TestGateBasics:
    def test_x_on_basis_state(self):
        c = Circuit(3, (Gate(X, (1,)),))
        out = simulate(c, np.eye(8)[0])
        assert out[0b010] == 1.0

    def test_empty_circuit_identity(self):
        psi = np.array([0.6, 0.8j])
        out = simulate(Circuit(1, ()), psi)
        assert np.array_equal(out, psi)

    def test_operand_validation(self):
        with pytest.raises(QmaxwellError):
            Gate(CNOT, (1, 1))
        with pytest.raises(QmaxwellError):
            Circuit(2, (Gate(X, (5,)),))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_random_circuit_matches_dense_product(self, n):
        # Up to n - 1 controls, so some mcrz gates cover every qubit.
        rng = np.random.default_rng(42)
        gates = []
        for _ in range(50):
            kind = rng.choice([X, SUPERPOSE, PHASE, CNOT, MCRZ, FOURIER])
            if kind in (X, SUPERPOSE, PHASE):
                q = int(rng.integers(n))
                gates.append(
                    Gate(kind, (q,), float(rng.uniform(-3, 3)) if kind == PHASE else None)
                )
            elif kind == CNOT:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(Gate(kind, (int(a), int(b))))
            elif kind == MCRZ:
                k = int(rng.integers(0, n))
                qs = rng.choice(n, size=k + 1, replace=False)
                pol = tuple(int(b) for b in rng.integers(0, 2, size=k))
                gates.append(Gate(MCRZ, tuple(int(q) for q in qs), float(rng.uniform(-3, 3)), pol))
            else:
                lo = int(rng.integers(0, n - 1))
                m = int(rng.integers(1, n - lo + 1))
                gates.append(Gate(FOURIER, tuple(range(lo, lo + m)), inverse=bool(rng.integers(2))))
        c = Circuit(n, tuple(gates))
        u = np.eye(1 << n, dtype=complex)
        for g in gates:
            u = dense_gate(g, n) @ u
        psi0 = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        psi0 /= np.linalg.norm(psi0)
        out = simulate(c, psi0)
        assert np.linalg.norm(out - u @ psi0) < 1e-10

    @pytest.mark.parametrize(
        "g",
        [
            Gate(X, (1,)),
            Gate(SUPERPOSE, (0,)),
            Gate(CNOT, (2, 0)),
            Gate(PHASE, (2,), 0.4),
            rz(1, -0.8),
            Gate(MCRZ, (0, 2, 1), 1.1, (1, 0)),
            Gate(FOURIER, (0, 1, 2)),
            Gate(FOURIER, (1, 2), inverse=True),
        ],
        ids=lambda g: g.kind,
    )
    def test_apply_gate_leaves_its_argument_unchanged(self, g):
        rng = np.random.default_rng(7)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        before = psi.tobytes()
        out = apply_gate(psi, g)
        assert psi.tobytes() == before
        assert not np.shares_memory(out, psi)

    def test_simulate_returns_independent_arrays(self):
        # The circuit keeps one bound buffer; neither output aliases it or the other.
        rng = np.random.default_rng(11)
        c = Circuit(3, (Gate(SUPERPOSE, (0,)), Gate(CNOT, (0, 2)), rz(1, 0.3), Gate(FOURIER, (1, 2))))
        psi1, psi2 = (rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(2))
        inputs = psi1.tobytes(), psi2.tobytes()
        out1 = simulate(c, psi1)
        first = out1.tobytes()
        out2 = simulate(c, psi2)
        assert (psi1.tobytes(), psi2.tobytes()) == inputs
        assert out1.tobytes() == first
        assert out2.tobytes() == simulate(c, psi2).tobytes()
        assert not np.shares_memory(out1, out2)
        assert not any(np.shares_memory(out, c.bound[0]) for out in (out1, out2))

    def test_norm_check_catches_drift(self):
        psi = np.array([2.0, 0.0])  # non-unit on purpose
        out = simulate(Circuit(1, (Gate(X, (0,)),)), psi)
        assert out[1] == 2.0  # relative norm preserved, no false alarm

    def test_fourier_needs_contiguous_range(self):
        psi = np.eye(8)[0]
        with pytest.raises(QmaxwellError):
            simulate(Circuit(3, (Gate(FOURIER, (0, 2)),)), psi)


class TestLowering:
    def test_single_control_crz(self):
        g = Gate(MCRZ, (0, 1), 0.7, (1,))
        lowered = mcrz_lowering(g, 2)
        kinds = [x.kind for x in lowered]
        assert kinds.count(CNOT) == 2
        assert sum(1 for x in lowered if x.kind == MCRZ and not x.controls) == 2
        assert np.linalg.norm(gates_unitary(lowered, 2) - dense_gate(g, 2)) < 1e-12

    def test_toffoli_exact(self):
        want = dense_gate(Gate(MCRZ, (0, 1), 1.0, (1,)), 2)  # placeholder shape
        got = gates_unitary(mcx_gates((0, 1), 2, ()), 3)
        ccx = np.eye(8, dtype=complex)
        ccx[[3, 7], [3, 7]] = 0
        ccx[3, 7] = ccx[7, 3] = 1.0
        assert np.linalg.norm(got - ccx) < 1e-12

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_mcx_with_borrowed_qubits(self, k):
        # k controls + target + k-2 borrowed wires; borrowed bits arbitrary.
        n = 2 * k - 1
        controls = tuple(range(k))
        target = k
        borrowed = tuple(range(k + 1, n))
        u = gates_unitary(mcx_gates(controls, target, borrowed), n)
        dim = 1 << n
        expect = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            j = i ^ (1 << target) if all((i >> c) & 1 for c in controls) else i
            expect[j, i] = 1.0
        assert np.linalg.norm(u - expect) < 1e-11

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_mcx_single_spare(self, k):
        # Only one spare wire forces the split construction.
        n = k + 2
        controls = tuple(range(k))
        u = gates_unitary(mcx_gates(controls, k, (k + 1,)), n)
        dim = 1 << n
        expect = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            j = i ^ (1 << k) if all((i >> c) & 1 for c in controls) else i
            expect[j, i] = 1.0
        assert np.linalg.norm(u - expect) < 1e-11

    def test_mcx_no_spare_rejected(self):
        with pytest.raises(QmaxwellError):
            mcx_gates((0, 1, 2), 3, ())

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_mcrz_lowering_exact(self, k):
        n = k + 1
        g = Gate(MCRZ, tuple(range(k + 1)), 1.234, (1,) * k)
        lowered = mcrz_lowering(g, n)
        assert all(x.kind in (CNOT, PHASE, SUPERPOSE, MCRZ, X) for x in lowered)
        assert all(not x.controls for x in lowered if x.kind == MCRZ)
        assert np.linalg.norm(gates_unitary(lowered, n) - dense_gate(g, n)) < 1e-12

    def test_polarity_zero_wrapped(self):
        g = Gate(MCRZ, (0, 1, 2), -0.9, (0, 1))
        lowered = mcrz_lowering(g, 3)
        assert lowered[0].kind == X and lowered[-1].kind == X
        assert np.linalg.norm(gates_unitary(lowered, 3) - dense_gate(g, 3)) < 1e-12

    def test_zero_control_rejected(self):
        with pytest.raises(QmaxwellError):
            mcrz_lowering(rz(0, 0.5), 1)

    def test_quadratic_cnot_scaling(self):
        counts = {}
        for k in range(2, 11):
            n = k + 1
            g = Gate(MCRZ, tuple(range(k + 1)), 0.5, (1,) * k)
            counts[k] = sum(1 for x in mcrz_lowering(g, n) if x.kind == CNOT)
        cs = {k: c / k**2 for k, c in counts.items()}
        print(f"mcrz cnot counts: {counts}")
        print(f"c = count/k^2: {cs}")
        assert max(cs.values()) < 40.0


class TestQft:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_native(self, m):
        native = dense_gate(Gate(FOURIER, tuple(range(m))), m)
        lowered = gates_unitary(qft_gates(tuple(range(m))), m)
        assert np.linalg.norm(lowered - native) < 1e-12

    def test_inverse(self):
        m = 3
        native = dense_gate(Gate(FOURIER, tuple(range(m)), inverse=True), m)
        lowered = gates_unitary(qft_gates(tuple(range(m)), inverse=True), m)
        assert np.linalg.norm(lowered - native) < 1e-12

    def test_offset_subrange(self):
        g = Gate(FOURIER, (1, 2))
        lowered = gates_unitary(qft_gates((1, 2)), 3)
        assert np.linalg.norm(lowered - dense_gate(g, 3)) < 1e-12


def random_gates(n, rng, count=60):
    """Random gates of every kind on ``n`` qubits, with full-width mcrz and inverse fourier."""
    gates = []
    for _ in range(count):
        kind = rng.choice([X, SUPERPOSE, PHASE, CNOT, MCRZ, FOURIER])
        if kind in (X, SUPERPOSE, PHASE):
            angle = float(rng.uniform(-3, 3)) if kind == PHASE else None
            gates.append(Gate(kind, (int(rng.integers(n)),), angle))
        elif kind == CNOT:
            gates.append(Gate(kind, tuple(int(q) for q in rng.choice(n, size=2, replace=False))))
        elif kind == MCRZ:
            k = int(rng.integers(0, n))
            qs = tuple(int(q) for q in rng.choice(n, size=k + 1, replace=False))
            pol = tuple(int(b) for b in rng.integers(0, 2, size=k))
            gates.append(Gate(MCRZ, qs, float(rng.uniform(-3, 3)), pol))
        else:
            lo = int(rng.integers(0, n - 1))
            m = int(rng.integers(1, n - lo + 1))
            gates.append(Gate(FOURIER, tuple(range(lo, lo + m)), inverse=bool(rng.integers(2))))
    # Repeat the list so the same gates recur, as they do in every Trotter step.
    return gates + gates


class TestStats:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_matches_independent_walk_on_random_circuits(self, n):
        gates = random_gates(n, np.random.default_rng(5))
        assert any(g.kind == MCRZ and len(g.qubits) == n for g in gates)
        assert any(g.kind == FOURIER and g.inverse for g in gates)
        c = Circuit(n, tuple(gates))
        assert gate_stats(c) == walked_stats(c)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_angles_change_no_count(self, n):
        rng = np.random.default_rng(9)
        gates = random_gates(n, rng)
        turned = [
            dataclasses.replace(g, angle=float(rng.uniform(-3, 3))) if g.angle is not None else g
            for g in gates
        ]
        assert turned != gates
        assert gate_stats(Circuit(n, tuple(turned))) == gate_stats(Circuit(n, tuple(gates)))

    def test_empty_circuit(self):
        stats = gate_stats(Circuit(3, ()))
        assert stats["two_qubit_count"] == 0
        assert stats["single_qubit_count"] == 0
        assert stats["depth"] == 0

    def test_counts_after_lowering(self):
        exchange = (Gate(CNOT, (0, 2)), Gate(CNOT, (2, 0)), Gate(CNOT, (0, 2)))
        c = Circuit(3, exchange + (Gate(MCRZ, (0, 1), 0.3, (1,)),))
        stats = gate_stats(c)
        assert stats["two_qubit_count"] == 3 + 2
        assert stats["single_qubit_count"] == 2

    def test_depth_disjoint_gates_parallel(self):
        c = Circuit(4, (Gate(X, (0,)), Gate(X, (1,)), Gate(CNOT, (2, 3))))
        assert gate_stats(c)["depth"] == 1

    def test_lowered_stream_preserves_semantics(self):
        rng = np.random.default_rng(3)
        gates = (
            Gate(MCRZ, (0, 1, 2, 3), 0.77, (1, 0, 1)),
            Gate(FOURIER, (0, 1)),
        )
        c = Circuit(4, gates)
        lowered = Circuit(4, tuple(lowered_gates(c)))
        u1 = circuit_unitary(c)
        u2 = circuit_unitary(lowered)
        assert np.linalg.norm(u1 - u2) < 1e-11


@pytest.mark.parametrize(
    "build",
    [
        lambda: Gate("foo", (0,)),
        lambda: Gate(MCRZ, (0, 1, 2), 0.1, (1,)),
        lambda: simulate(Circuit(2, ()), np.zeros(3, dtype=complex)),
        lambda: mcrz_lowering(Gate(X, (0,)), 1),
        lambda: Gate(MCRZ, (0, 1), 0.3, (2,)),
        lambda: Gate(CNOT, (0,)),
        lambda: Gate(CNOT, (0, 1, 2)),
        lambda: Gate(X, (0, 1)),
        lambda: Gate(SUPERPOSE, ()),
        lambda: Gate(PHASE, (0,)),
        lambda: Gate(MCRZ, (0, 1), None, (1,)),
        lambda: Gate(MCRZ, (), 0.3),
        lambda: Gate(FOURIER, ()),
        lambda: Gate(FOURIER, (0, 2)),
        lambda: Gate(FOURIER, (1, 0)),
    ],
    ids=[
        "unknown-kind", "too-few-polarities", "state-shape", "lower-non-mcrz",
        "polarity-not-a-bit", "cnot-one-operand", "cnot-three-operands", "x-two-operands",
        "superpose-no-operand", "phase-no-angle", "mcrz-no-angle", "mcrz-no-operand",
        "fourier-no-operand", "fourier-gap", "fourier-descending",
    ],
)
def test_typed_refusals(build):
    with pytest.raises(QmaxwellError):
        build()
