"""Gate-level IR, exact statevector simulation, lowering, and gate accounting.

Gate set (closed under everything the compiled blocks and the auxiliary
Fourier transform need):

* ``x``          Pauli X on one qubit
* ``superpose``  Hadamard basis-superposition gate
* ``cnot``       controlled X, qubits = (control, target)
* ``phase``      diag(1, e^{i*theta}) on one qubit
* ``mcrz``       diag(e^{-i*theta/2}, e^{+i*theta/2}) on the last operand when
                 every control matches its polarity; zero controls = plain
                 z-rotation (a primitive 1q gate, never lowered)
* ``fourier``    unitary DFT (kernel ``e^{+2*pi*i*lm/M}``) over a contiguous
                 ascending qubit range; simulated natively, lowered to gates
                 for statistics

Basis convention: bit ``i`` of the state index is qubit ``i``; auxiliary
qubits occupy the high bits.  A statevector is a plain complex array of
length ``2**n_qubits``.  No gate writes to the array it is given, and gates
apply strictly in sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QmaxwellError

X = "x"
SUPERPOSE = "superpose"
CNOT = "cnot"
PHASE = "phase"
MCRZ = "mcrz"
FOURIER = "fourier"

_KINDS = (X, SUPERPOSE, CNOT, PHASE, MCRZ, FOURIER)
_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    polarities: tuple[int, ...] = ()
    inverse: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise QmaxwellError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise QmaxwellError(f"gate operands must be distinct: {self.qubits}")
        if self.kind == MCRZ and len(self.polarities) != len(self.qubits) - 1:
            raise QmaxwellError("mcrz needs one polarity per control")

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits[:-1] if self.kind == MCRZ else ()

    @property
    def target(self) -> int:
        return self.qubits[-1]


def rz(q: int, theta: float) -> Gate:
    """Plain z-rotation: an mcrz with no controls."""
    return Gate(MCRZ, (q,), angle=theta)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise QmaxwellError(
                    f"gate {g.kind} on {g.qubits} out of range for {self.n_qubits} qubits"
                )


def _pair_views(psi, target, controls, polarities):
    """A copy of ``psi`` and two views into it: the target bit at 0 and at 1.

    Both views cover only the amplitudes where every control matches its
    polarity.  Every axis is indexed with a slice, so the views stay views
    even when the operands cover every qubit.
    """
    n = psi.shape[0].bit_length() - 1
    out = psi.reshape((2,) * n).copy()
    index = [slice(None)] * n
    for c, p in zip(controls, polarities):
        index[n - 1 - c] = slice(p, p + 1)
    index[n - 1 - target] = slice(0, 1)
    lo = out[tuple(index)]
    index[n - 1 - target] = slice(1, 2)
    return out, lo, out[tuple(index)]


def _apply_fourier(psi, qubits, inverse):
    if tuple(qubits) != tuple(range(qubits[0], qubits[0] + len(qubits))):
        raise QmaxwellError("fourier gate needs a contiguous ascending qubit range")
    lo, m = qubits[0], len(qubits)
    block = psi.reshape(-1, 1 << m, 1 << lo)
    if inverse:
        out = np.fft.fft(block, axis=1, norm="ortho")
    else:
        out = np.fft.ifft(block, axis=1, norm="ortho")
    return out.reshape(-1)


def apply_gate(psi: np.ndarray, g: Gate) -> np.ndarray:
    if g.kind == FOURIER:
        return _apply_fourier(psi, g.qubits, g.inverse)
    controls, polarities = (g.qubits[:1], (1,)) if g.kind == CNOT else (g.controls, g.polarities)
    out, lo, hi = _pair_views(psi, g.target, controls, polarities)
    if g.kind in (X, CNOT):
        lo[...], hi[...] = hi, lo.copy()  # lo is copied before it is overwritten
    elif g.kind == SUPERPOSE:
        lo[...], hi[...] = (lo + hi) * _SQRT_HALF, (lo - hi) * _SQRT_HALF
    elif g.kind == PHASE:
        hi *= np.exp(1j * g.angle)
    elif g.kind == MCRZ:
        lo *= np.exp(-0.5j * g.angle)
        hi *= np.exp(0.5j * g.angle)
    else:
        raise QmaxwellError(f"unknown gate kind {g.kind!r}")
    return out.reshape(-1)


def simulate(circuit: Circuit, psi: np.ndarray, check_norm: bool = True) -> np.ndarray:
    """Exact amplitude evolution of the circuit on the statevector ``psi``.

    Amplitude updates for a single gate may be partitioned internally, but
    gates always apply in sequence.  The norm is checked after every gate
    when ``check_norm`` is set.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (1 << circuit.n_qubits,):
        raise QmaxwellError(
            f"state of shape {psi.shape} does not fit circuit on {circuit.n_qubits} qubits"
        )
    ref = np.linalg.norm(psi) if check_norm else 0.0
    for g in circuit.gates:
        psi = apply_gate(psi, g)
        if check_norm and abs(np.linalg.norm(psi) - ref) > 1e-10 * max(ref, 1.0):
            raise QmaxwellError(f"norm drifted after {g.kind} on {g.qubits}")
    return psi


def circuit_unitary(circuit: Circuit, max_qubits: int = 12) -> np.ndarray:
    """Dense unitary of a circuit (testing helper, small registers only)."""
    n = circuit.n_qubits
    if n > max_qubits:
        raise QmaxwellError(f"refusing dense unitary on {n} qubits")
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for k in range(dim):
        psi = u[:, k].copy()
        for g in circuit.gates:
            psi = apply_gate(psi, g)
        u[:, k] = psi
    return u


def gates_unitary(gates, n_qubits: int) -> np.ndarray:
    return circuit_unitary(Circuit(n_qubits, tuple(gates)))


def dagger(gates) -> list[Gate]:
    """Inverse of a gate sequence (angles negated, order reversed)."""
    out = []
    for g in reversed(list(gates)):
        if g.kind in (PHASE, MCRZ):
            out.append(Gate(g.kind, g.qubits, -g.angle, g.polarities))
        elif g.kind == FOURIER:
            out.append(Gate(FOURIER, g.qubits, inverse=not g.inverse))
        else:  # x, superpose and cnot are their own inverses
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# Lowering to {1-qubit, CNOT}


def _toffoli_gates(c1: int, c2: int, t: int) -> list[Gate]:
    """Doubly-controlled X from CNOTs, superpositions, and eighth-turn phases."""
    p = math.pi / 4
    return [
        Gate(SUPERPOSE, (t,)),
        Gate(CNOT, (c2, t)),
        Gate(PHASE, (t,), -p),
        Gate(CNOT, (c1, t)),
        Gate(PHASE, (t,), p),
        Gate(CNOT, (c2, t)),
        Gate(PHASE, (t,), -p),
        Gate(CNOT, (c1, t)),
        Gate(PHASE, (c2,), p),
        Gate(PHASE, (t,), p),
        Gate(CNOT, (c1, c2)),
        Gate(SUPERPOSE, (t,)),
        Gate(PHASE, (c1,), p),
        Gate(PHASE, (c2,), -p),
        Gate(CNOT, (c1, c2)),
    ]


def _mcx_ladder(controls, target, borrowed) -> list[Gate]:
    """Multi-controlled X with k-2 borrowed (dirty) work qubits."""
    k = len(controls)
    anc = borrowed[: k - 2]
    top = (controls[k - 1], anc[k - 3] if k > 3 else anc[0], target)
    chain = [
        (controls[i + 1], anc[i - 1], anc[i]) for i in range(k - 3, 0, -1)
    ]
    bottom = (controls[0], controls[1], anc[0])
    half = [top] + chain + [bottom] + [c for c in reversed(chain)]
    seq = half + half
    out = []
    for a, b, t in seq:
        out.extend(_toffoli_gates(a, b, t))
    return out


def mcx_gates(controls, target, borrowed) -> list[Gate]:
    """Multi-controlled X (all controls on 1) lowered to the base set.

    Uses the dirty-ancilla ladder when enough borrowed qubits exist, else
    splits once so both halves can borrow from each other.
    """
    controls = tuple(controls)
    borrowed = tuple(b for b in borrowed if b != target and b not in controls)
    k = len(controls)
    if k == 0:
        return [Gate(X, (target,))]
    if k == 1:
        return [Gate(CNOT, (controls[0], target))]
    if k == 2:
        return _toffoli_gates(controls[0], controls[1], target)
    if len(borrowed) >= k - 2:
        return _mcx_ladder(controls, target, borrowed)
    if not borrowed:
        raise QmaxwellError(
            f"{k}-control X needs at least one spare qubit to lower"
        )
    b = borrowed[0]
    m = (k + 1) // 2
    first, second = controls[:m], controls[m:] + (b,)
    p = mcx_gates(first, b, second[:-1] + (target,) + borrowed[1:])
    q = mcx_gates(second, target, first + borrowed[1:])
    return p + q + p + q


def mcrz_lowering(gate: Gate, n_qubits: int) -> list[Gate]:
    """Lower a multi-controlled z-rotation to CNOTs and 1-qubit rotations.

    Polarity-0 controls are wrapped in X conjugation; the recursion costs
    O(k^2) CNOTs for k controls.  A rotation with no controls is already a
    primitive gate and is not accepted here.
    """
    if gate.kind != MCRZ:
        raise QmaxwellError("mcrz_lowering expects an mcrz gate")
    controls, target, theta = gate.controls, gate.target, gate.angle
    if not controls:
        raise QmaxwellError("lowering needs at least one control")
    wrap = [Gate(X, (c,)) for c, p in zip(controls, gate.polarities) if p == 0]

    def crz(c, t, phi):
        return [
            rz(t, phi / 2),
            Gate(CNOT, (c, t)),
            rz(t, -phi / 2),
            Gate(CNOT, (c, t)),
        ]

    def lower(ctrls, phi):
        if len(ctrls) == 1:
            return crz(ctrls[0], target, phi)
        spare = tuple(
            q for q in range(n_qubits) if q not in ctrls and q != target
        )
        if spare:
            # Rotation sandwiched between two multi-controlled flips; the
            # flips borrow every uninvolved qubit, so the count stays linear.
            mcx = mcx_gates(ctrls, target, spare)
            return [rz(target, phi / 2)] + mcx + [rz(target, -phi / 2)] + mcx
        # Full-width gate: peel one control to free a borrowable qubit.
        head, last = ctrls[:-1], ctrls[-1]
        mcx = mcx_gates(head, last, (target,))
        return (
            crz(last, target, phi / 2)
            + mcx
            + crz(last, target, -phi / 2)
            + mcx
            + lower(head, phi / 2)
        )

    return wrap + lower(tuple(controls), theta) + wrap


def qft_gates(qubits, inverse: bool = False) -> list[Gate]:
    """Gate realization of the ``fourier`` kind over the given qubit range.

    Matches the native DFT (kernel ``e^{+2*pi*i*lm/M}``, bit ``j`` of the
    subregister index on ``qubits[j]``); controlled phases are emitted
    pre-lowered so the output stays in the base set.
    """

    def cphase(a, b, theta):
        return [
            Gate(PHASE, (a,), theta / 2),
            Gate(PHASE, (b,), theta / 2),
            Gate(CNOT, (a, b)),
            Gate(PHASE, (b,), -theta / 2),
            Gate(CNOT, (a, b)),
        ]

    qubits = tuple(qubits)
    m = len(qubits)
    gates: list[Gate] = []
    for j in range(m - 1, -1, -1):
        gates.append(Gate(SUPERPOSE, (qubits[j],)))
        for i in range(j - 1, -1, -1):
            gates.extend(cphase(qubits[i], qubits[j], math.pi / (1 << (j - i))))
    for i in range(m // 2):  # bit reversal, each exchange as three CNOTs
        a, b = qubits[i], qubits[m - 1 - i]
        gates.extend([Gate(CNOT, (a, b)), Gate(CNOT, (b, a)), Gate(CNOT, (a, b))])
    return dagger(gates) if inverse else gates


def lowered_gates(circuit: Circuit):
    """Stream the circuit with every composite gate expanded to the base set."""
    for g in circuit.gates:
        if g.kind == MCRZ and g.controls:
            yield from mcrz_lowering(g, circuit.n_qubits)
        elif g.kind == FOURIER:
            qft = Circuit(circuit.n_qubits, tuple(qft_gates(g.qubits, g.inverse)))
            yield from lowered_gates(qft)
        else:
            yield g


def gate_stats(circuit: Circuit) -> dict:
    """Gate counts and greedy depth after lowering to {1-qubit, CNOT}.

    ``abstract_depth`` additionally reports the depth of the circuit as
    emitted (multi-controlled rotations and Fourier transforms counted as
    single gates), which is the granularity used for headline depth figures.
    """
    two = single = 0
    frontier = [0] * circuit.n_qubits
    for g in lowered_gates(circuit):
        if g.kind == CNOT:
            two += 1
        else:
            single += 1
        layer = 1 + max(frontier[q] for q in g.qubits)
        for q in g.qubits:
            frontier[q] = layer
    depth = max(frontier, default=0)

    afrontier = [0] * circuit.n_qubits
    for g in circuit.gates:
        layer = 1 + max(afrontier[q] for q in g.qubits)
        for q in g.qubits:
            afrontier[q] = layer
    return {
        "two_qubit_count": int(two),
        "single_qubit_count": int(single),
        "depth": depth,
        "abstract_depth": max(afrontier, default=0),
    }

