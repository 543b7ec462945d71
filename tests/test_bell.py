import cmath
import hashlib
import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from qmaxwell.bell import (
    S00,
    S01,
    S10,
    S11,
    ID,
    BellBlock,
    compile_blocks,
    tensorize,
)
from qmaxwell.circuit import CNOT, MCRZ, Circuit, dagger, simulate
from qmaxwell.errors import HermiticityError
from qmaxwell.grid import Boundaries, GridSpec, ScattererBox
from qmaxwell.lifting import hermitian_split
from qmaxwell.operators import (
    assemble_generator,
    staggered_derivative,
    symmetrizing_weights,
)
from qmaxwell.scenarios import build_scenario

from helpers import gates_unitary, reconstruct


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTensorize:
    def test_pauli_x(self):
        assert tensorize(PAULI_X) == {(S01,): 1.0, (S10,): 1.0}

    def test_zero_matrix(self):
        assert tensorize(np.zeros((4, 4))) == {}

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            tensorize(np.eye(3))

    def test_identity_factor_merging(self):
        # I (x) X must come out as exactly two strings, not one per entry.
        h = np.kron(np.eye(8), PAULI_X)
        assert list(tensorize(h)) == [
            (ID, ID, ID, S01),
            (ID, ID, ID, S10),
        ]

    def test_banded_term_count_scales_with_qubits(self):
        # Band + boundary deviations: O(log dim) strings, not O(dim).
        counts = {}
        for n in (8, 16, 32, 64):
            d = staggered_derivative(n, 1.0, "edge_to_node").toarray()
            counts[n] = len(tensorize(d))
        print(f"edge-to-node term counts: {counts}")
        # Constant increment per added qubit, far below one term per entry.
        assert counts[64] - counts[32] == counts[32] - counts[16]
        assert counts[64] <= counts[8] + 3 * 4
        assert counts[64] < 2 * 64 - 1

    def test_reconstruction_exact_central_difference(self):
        d = staggered_derivative(4, 1.0, "node_to_edge").toarray()
        h = np.kron(np.eye(2), d)
        terms = tensorize(h)
        assert np.linalg.norm(reconstruct(terms) - h) < 1e-14

    @pytest.mark.parametrize("n", [4, 8])
    def test_reconstruction_assembled_operators(self, n):
        spec = GridSpec(nx=n, ny=n, dim=2)
        pair = hermitian_split(assemble_generator(spec))
        for h in (pair.h1.toarray(), pair.h2.toarray()):
            terms = tensorize(h)
            assert np.linalg.norm(reconstruct(terms) - h) < 1e-13

    def test_reconstruction_scatterer_operator(self):
        spec = GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox((2, 2), (6, 6)))
        pair = hermitian_split(assemble_generator(spec))
        h2 = pair.h2.toarray()
        terms = tensorize(h2)
        assert np.linalg.norm(reconstruct(terms) - h2) < 1e-13

    def test_strings_unique(self):
        # A map holds each string once; it is also sorted, and sums back to h.
        rng = np.random.default_rng(0)
        h = rng.standard_normal((16, 16))
        strings = tensorize(h)
        assert list(strings) == sorted(strings)
        assert np.linalg.norm(reconstruct(strings) - h) < 1e-13


class TestPairAdjoints:
    """``compile_blocks`` pairs every string with its adjoint."""

    def test_pauli_x_pairs_to_one(self):
        pairs = compile_blocks(PAULI_X)
        assert len(pairs) == 1
        assert pairs[0].factors == (S01,)
        assert pairs[0].weight == 1.0
        assert pairs[0].phase == 0.0

    def test_h2_terms_all_matched(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        pair = hermitian_split(assemble_generator(spec))
        total = reconstruct(compile_blocks(pair.h2))
        assert np.linalg.norm(total - pair.h2.toarray()) < 1e-13

    def test_unmatched_term_rejected(self):
        # A lone |0><1| string, and a lone |1><0| string.
        for lone in ([[0, 1], [0, 0]], [[0, 0], [1, 0]]):
            with pytest.raises(HermiticityError, match="no adjoint partner"):
                compile_blocks(np.array(lone, dtype=complex))

    def test_mismatched_coefficient_rejected(self):
        with pytest.raises(HermiticityError, match="adjoint coefficients differ"):
            compile_blocks(np.array([[0, 1], [0.5, 0]], dtype=complex))

    def test_complex_diagonal_rejected(self):
        # A diagonal string has no block, whatever its coefficient.
        with pytest.raises(ValueError, match=r"\('s11',\)"):
            compile_blocks(np.array([[0, 0], [0, 1j]]))


def simulated_block_unitary(block, dt, n=None):
    return gates_unitary(block.gates(dt), n or block.n)


class TestBellBlocks:
    def test_single_qubit_x_block(self):
        block = compile_blocks(PAULI_X)[0]
        cores = [g for g in block.gates(0.3) if g.kind == MCRZ]
        assert [(g.qubits, g.angle) for g in cores] == [((0,), pytest.approx(-0.6))]
        u = simulated_block_unitary(block, 0.3)
        expected = expm(1j * 0.3 * PAULI_X)
        assert np.linalg.norm(u - expected) < 1e-12

    def test_two_qubit_flip_pair(self):
        # |01><10| + h.c. on two qubits.
        h = np.zeros((4, 4), dtype=complex)
        h[1, 2] = h[2, 1] = 0.7
        blocks = compile_blocks(h)
        assert len(blocks) == 1
        block = blocks[0]
        # The lower flip qubit carries the core; the basis change fans out to the other.
        assert [g.qubits for g in block.gates(0.25) if g.kind == MCRZ] == [(1, 0)]
        assert [g.qubits for g in block.basis_change() if g.kind == CNOT] == [(0, 1)]
        u = simulated_block_unitary(block, 0.25)
        assert np.linalg.norm(u - expm(1j * 0.25 * h)) < 1e-12

    def test_spectator_control(self):
        # sigma11 spectator on the high qubit adds a control-on-1.
        h = np.zeros((4, 4), dtype=complex)
        h[2, 3] = h[3, 2] = 1.0
        block = compile_blocks(h)[0]
        [core] = [g for g in block.gates(0.4) if g.kind == MCRZ]
        assert (core.controls, core.polarities, core.target) == ((1,), (1,), 0)
        u = simulated_block_unitary(block, 0.4)
        assert np.linalg.norm(u - expm(1j * 0.4 * h)) < 1e-12

    def test_imaginary_pair_coefficient(self):
        # i|0><1| - i|1><0| (Pauli-Y-like): nontrivial phase.
        h = np.array([[0, 1j], [-1j, 0]], dtype=complex)
        u = simulated_block_unitary(compile_blocks(h)[0], 0.5)
        assert np.linalg.norm(u - expm(1j * 0.5 * h)) < 1e-12

    def test_identity_term_rejected(self):
        # A diagonal string has no flip qubit, so compile_blocks refuses it by name.
        with pytest.raises(ValueError, match=r"\('i', 'i'\)"):
            compile_blocks(np.eye(4))

    def test_block_generator_matches_pair(self):
        h = np.zeros((8, 8), dtype=complex)
        h[1, 6] = 0.25 - 0.4j
        h[6, 1] = 0.25 + 0.4j
        assert np.linalg.norm(compile_blocks(h)[0].matrix() - h) < 1e-13

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name, nx", [("2d-empty", 8), ("2d-scatterer", 8), ("3d-empty", 4)])
    def test_compiled_blocks_sum_to_operator(self, name, nx, weighted):
        spec = build_scenario(name, nx=nx).spec
        a = assemble_generator(spec)
        pair = hermitian_split(a, symmetrizing_weights(spec) if weighted else None)
        for h in (pair.h1.toarray(), pair.h2.toarray()):
            total = np.zeros(h.shape, dtype=complex)
            for b in compile_blocks(h):
                total += b.matrix()
            assert np.abs(total - h).max() < 1e-13

    def test_compiled_blocks_unitary_and_correct(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        pair = hermitian_split(assemble_generator(spec))
        dt = 0.1
        blocks = compile_blocks(pair.h2)
        rng = np.random.default_rng(1)
        # Spot-check a sample densely (dimension 64).
        for block in rng.choice(len(blocks), size=min(6, len(blocks)), replace=False):
            b = blocks[block]
            u = simulated_block_unitary(b, dt)
            assert np.linalg.norm(u @ u.conj().T - np.eye(64)) < 1e-12
            expected = expm(1j * dt * b.matrix())
            assert np.linalg.norm(u - expected) < 1e-10


_ROW_COL = {S00: (0, 0), S01: (0, 1), S10: (1, 0), S11: (1, 1)}


def test_basis_change_reads_out_the_pair_interference():
    """``dagger(O)`` maps ``a|r> + b*e^{-i phase}|c>`` onto two outcomes of probability ``(a +- b)^2 / 2``.

    ``r`` and ``c`` are the row and column patterns of the block's string
    (an identity factor puts one random bit in both).  The two outcomes
    differ only in the target, the lowest flip qubit, and the ``+`` one has
    the target at 0.  This is the sign readout of a probe pair.
    """
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        lead = int(rng.integers(n))
        # No flip above the leading |0><1|, as in a compiled block.
        factors = tuple(
            S01 if k == lead else str(rng.choice([ID, S00, S11] + [S01, S10] * (k > lead)))
            for k in range(n)
        )
        r = c = 0
        for k, tag in enumerate(factors):
            rb, cb = _ROW_COL[tag] if tag != ID else (int(rng.integers(2)),) * 2
            r |= rb << (n - 1 - k)
            c |= cb << (n - 1 - k)
        phase = rng.uniform(-np.pi, np.pi)
        theta = rng.uniform(0, 2 * np.pi)
        a, b = np.cos(theta), np.sin(theta)
        block = BellBlock(cmath.exp(1j * phase), factors)
        psi = np.zeros(1 << n, dtype=complex)
        psi[r] = a
        psi[c] = b * np.exp(-1j * block.phase)
        probs = np.abs(simulate(Circuit(n, tuple(dagger(block.basis_change()))), psi)) ** 2
        outcomes = np.flatnonzero(probs)
        assert len(outcomes) == 2
        plus, minus = outcomes
        target = n - 1 - max(k for k, tag in enumerate(factors) if tag in (S01, S10))
        assert plus ^ minus == 1 << target and not plus >> target & 1
        assert abs(probs[plus] - (a + b) ** 2 / 2) <= 1e-14
        assert abs(probs[minus] - (a - b) ** 2 / 2) <= 1e-14


def _digest_specs():
    for faces in itertools.product(("pmc", "pec"), repeat=4):
        for body in (None, "pmc", "pec"):
            box = None if body is None else ScattererBox((2, 2), (6, 6), faces=body)
            yield GridSpec(nx=8, ny=8, dim=2, boundaries=Boundaries(*faces), scatterer=box)
    for name, nx in (
        ("2d-empty", 8), ("2d-empty", 32), ("2d-scatterer", 8), ("2d-scatterer", 16),
        ("3d-empty", 4), ("3d-empty", 8),
    ):
        yield build_scenario(name, nx=nx).spec


def test_compiled_blocks_pinned():
    """sha256 over every block's factors and coefficient bytes, in compile order.

    Both Hermitian parts, weighted and unweighted, of 54 grids: every outer
    face mix of an 8x8 grid with no body, a PMC body and a PEC body, plus
    the three named scenarios at two sizes each.  A change to which string
    represents a pair, to the block order or to any coefficient bit fails.
    """
    h = hashlib.sha256()
    n_blocks = 0
    for spec in _digest_specs():
        a = assemble_generator(spec)
        for weights in (None, symmetrizing_weights(spec)):
            pair = hermitian_split(a, weights)
            for op in (pair.h1, pair.h2):
                for block in compile_blocks(op):
                    h.update(repr(block.factors).encode())
                    h.update(np.complex128(block.coefficient).tobytes())
                    n_blocks += 1
    assert n_blocks == 6630
    assert h.hexdigest() == "6530e135773100b88b5572689fba04c73b9b117592272f41a9421a38ed96612b"


@pytest.mark.parametrize("h", [np.zeros((2, 4)), np.eye(3)], ids=["non-square", "not-power-of-two"])
def test_compile_blocks_refuses_shape(h):
    with pytest.raises(ValueError):
        compile_blocks(h)
