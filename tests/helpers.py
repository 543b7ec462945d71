"""Test-only references and measures that the library itself never calls.

* ``rk4_evolution``: fixed-step Runge-Kutta integration, an independent
  cross-check of the exact exponential;
* ``normalized_cross_correlation``: cosine similarity of two snapshots;
* ``circuit_unitary`` and ``gates_unitary``: dense unitaries of small
  circuits;
* ``walked_stats``: gate counts and greedy depths by one plain walk, an
  independent check of ``gate_stats``;
* ``unpack_impulses``: the inverse of ``pack_initial_condition`` on sparse
  impulse states;
* ``is_pad``: the pad test of one sample;
* ``reconstruct``: the dense sum of tensor strings or blocks;
* ``flat_state``: a bare vector as a field state with no grid behind it.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from qmaxwell.bell import ID, S00, S01, S10, S11
from qmaxwell.circuit import CNOT, Circuit, lowered_gates, simulate
from qmaxwell.errors import QmaxwellError
from qmaxwell.grid import Component, FieldLayout, FieldState
from qmaxwell.operators import as_csr


def rk4_evolution(a, u0, t: float, dt: float = 1e-4):
    """Explicit fixed-step integration of du/dt = A u up to ``t``."""
    m = as_csr(a)
    values = u0.values if isinstance(u0, FieldState) else np.asarray(u0, dtype=float)
    steps = max(1, round(t / dt))
    h = t / steps
    v = values.astype(float)
    for _ in range(steps):
        k1 = m @ v
        k2 = m @ (v + 0.5 * h * k1)
        k3 = m @ (v + 0.5 * h * k2)
        k4 = m @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if isinstance(u0, FieldState):
        return FieldState(values=v, layout=u0.layout, time=u0.time + t)
    return v


def normalized_cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two field snapshots (scale-invariant); 0 if either is zero."""
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na == 0 or nb == 0:
        return 0.0
    return float(av @ bv / (na * nb))


def circuit_unitary(circuit: Circuit, max_qubits: int = 12) -> np.ndarray:
    """Dense unitary of a circuit: column ``k`` is the circuit applied to basis state ``k``."""
    n = circuit.n_qubits
    if n > max_qubits:
        raise QmaxwellError(f"refusing dense unitary on {n} qubits")
    basis = np.eye(1 << n, dtype=complex)
    return np.column_stack([simulate(circuit, e, check_norm=False) for e in basis])


def gates_unitary(gates, n_qubits: int) -> np.ndarray:
    return circuit_unitary(Circuit(n_qubits, tuple(gates)))


def walked_stats(circuit: Circuit) -> dict:
    """``gate_stats`` recomputed gate by gate over ``lowered_gates``, with no memo."""

    def walk(gates):
        frontier = [0] * circuit.n_qubits
        two = count = 0
        for g in gates:
            two += g.kind == CNOT
            count += 1
            layer = 1 + max(frontier[q] for q in g.qubits)
            for q in g.qubits:
                frontier[q] = layer
        return two, count, max(frontier, default=0)

    two, count, depth = walk(lowered_gates(circuit))
    return {
        "two_qubit_count": two,
        "single_qubit_count": count - two,
        "depth": depth,
        "abstract_depth": walk(circuit.gates)[2],
    }


def unpack_impulses(state: FieldState) -> list:
    """``(component, i, j, k, amplitude)`` for every nonzero sample of ``state``."""
    layout = state.layout
    spec = layout.spec
    out = []
    for flat in np.nonzero(state.values)[0]:
        block, rest = divmod(int(flat), layout.block_size)
        k, rest = divmod(rest, spec.ny * spec.nx)
        j, i = divmod(rest, spec.nx)
        out.append((layout.components[block], i, j, k, float(state.values[flat])))
    return out


def is_pad(layout: FieldLayout, component: Component, i: int, j: int, k: int = 0) -> bool:
    """True for the zero-pad slot at the high end of a half-offset axis."""
    return bool(layout.classify(component, i, j, k).pad)


# Dense 2x2 factor of each tensor-string tag, independent of the library's table.
_FACTOR = {
    ID: np.eye(2),
    S00: np.array([[1, 0], [0, 0]]),
    S01: np.array([[0, 1], [0, 0]]),
    S10: np.array([[0, 0], [1, 0]]),
    S11: np.array([[0, 0], [0, 1]]),
}


def reconstruct(items) -> np.ndarray:
    """Dense sum of a ``{factors: coefficient}`` string map, or of blocks; for small dimensions."""
    if isinstance(items, dict):
        mats = [c * reduce(np.kron, (_FACTOR[f] for f in factors)) for factors, c in items.items()]
    else:
        mats = [b.matrix() for b in items]
    out = np.zeros(mats[0].shape if mats else (1, 1), dtype=complex)
    for m in mats:
        out += m
    return out


@dataclass(frozen=True)
class FlatLayout:
    """Layout stand-in for a bare vector: its length, and no grid behind it."""

    state_len: int


def flat_state(values) -> FieldState:
    """A bare vector as a ``FieldState``, to lift operators that no grid assembled."""
    values = np.asarray(values)
    return FieldState(values=values, layout=FlatLayout(values.size))
