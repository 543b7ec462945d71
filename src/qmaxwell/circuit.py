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

A ``Gate`` checks its own shape when it is built (operand count per kind,
polarities in {0, 1}, an angle where the kind needs one, a contiguous range
for ``fourier``) and refuses a field its kind ignores (polarities outside
``mcrz``, an angle outside ``phase`` and ``mcrz``, ``inverse`` outside
``fourier``), so ``simulate`` and ``gate_stats`` accept the same gates and
read them the same way.

Basis convention: bit ``i`` of the state index is qubit ``i``; auxiliary
qubits occupy the high bits.  A statevector is a plain complex array of
length ``2**n_qubits``.  ``simulate`` does not write to the array it is
given, and gates apply strictly in sequence.

``simulate`` binds a circuit once, on its first call (``Circuit.bound``):
every gate becomes views of one buffer kept on the circuit, with its
factors precomputed, so each call only does the arithmetic.

Lowering expands ``mcrz`` (with controls) and ``fourier`` to {1-qubit, CNOT}
(``_lowering``); ``lowered_gates`` streams the expansion.  ``gate_stats``
lowers each distinct gate once per call: an angle changes no count and no
layer, so gates that differ only in their angles share one lowered operand
stream, and the greedy depth walks those streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, groupby

import numpy as np

from .errors import QmaxwellError

X = "x"
SUPERPOSE = "superpose"
CNOT = "cnot"
PHASE = "phase"
MCRZ = "mcrz"
FOURIER = "fourier"

# Operand count per kind; 0 means one or more.
_ARITY = {X: 1, SUPERPOSE: 1, CNOT: 2, PHASE: 1, MCRZ: 0, FOURIER: 0}
_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    polarities: tuple[int, ...] = ()
    inverse: bool = False

    def __post_init__(self):
        kind, qubits = self.kind, self.qubits
        arity = _ARITY.get(kind)
        if arity is None:
            raise QmaxwellError(f"unknown gate kind {kind!r}")
        if not qubits or (arity and len(qubits) != arity):
            raise QmaxwellError(f"{kind} gate cannot act on {len(qubits)} operands")
        if len(set(qubits)) != len(qubits):
            raise QmaxwellError(f"gate operands must be distinct: {qubits}")
        if kind in (PHASE, MCRZ) and self.angle is None:
            raise QmaxwellError(f"{kind} gate needs an angle")
        if kind not in (PHASE, MCRZ) and self.angle is not None:
            raise QmaxwellError(f"{kind} gate takes no angle")
        if self.polarities and kind != MCRZ:
            raise QmaxwellError(f"{kind} gate takes no polarities")
        if self.inverse and kind != FOURIER:
            raise QmaxwellError(f"{kind} gate has no inverse flag")
        if kind == MCRZ:
            if len(self.polarities) != len(qubits) - 1:
                raise QmaxwellError("mcrz needs one polarity per control")
            if any(p not in (0, 1) for p in self.polarities):
                raise QmaxwellError(f"mcrz polarities must be 0 or 1: {self.polarities}")
        elif kind == FOURIER and qubits != tuple(range(qubits[0], qubits[0] + len(qubits))):
            raise QmaxwellError("fourier gate needs a contiguous ascending qubit range")

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

    @cached_property
    def bound(self) -> tuple[np.ndarray, list]:
        """The circuit bound to one buffer: the buffer and one in-place update per gate.

        Built on the first ``simulate`` call and kept; ``simulate`` reuses it,
        so one circuit must not be simulated from two threads at once.
        """
        buf = np.empty(1 << self.n_qubits, dtype=complex)
        spare = np.empty_like(buf)
        return buf, [_bind(g, buf, spare) for g in self.gates]


def _pair_view(buf, target, controls=(), polarities=()):
    """A view into the flat statevector ``buf`` and the axis of its target bit.

    The view covers the amplitudes where every control matches its
    polarity; along ``axis`` (length 2) the target bit is 0, then 1.  Each
    run of adjacent free qubits becomes one axis, and each run of adjacent
    pinned qubits (controls and the target) one axis sliced at the pinned
    values, so the view has a few axes however wide the register is.  Every
    axis is indexed with a slice, so it stays a view even when the operands
    cover every qubit.
    """
    n = buf.shape[0].bit_length() - 1
    pinned = dict(zip(controls, polarities))
    pinned[target] = 0
    shape, index = [], []
    for fixed, run in groupby(range(n - 1, -1, -1), key=pinned.__contains__):
        run = list(run)  # descending, so run[-1] is the run's lowest qubit
        shape.append(1 << len(run))
        if not fixed:
            index.append(slice(None))
            continue
        v = sum(pinned[q] << (q - run[-1]) for q in run)
        if target in run:
            axis, t = len(index), 1 << (target - run[-1])
            index.append(slice(v, v + t + 1, t))
        else:
            index.append(slice(v, v + 1))
    return buf.reshape(shape)[tuple(index)], axis


def _bind(g: Gate, buf: np.ndarray, spare: np.ndarray):
    """The update of ``buf`` in place by gate ``g``, as a callable of no arguments.

    The views and factors are computed here, once; the callable only does
    the arithmetic.  ``spare`` is scratch as long as ``buf`` that updates
    may share: it holds nothing between calls.
    """
    if g.kind == FOURIER:
        qubits = g.qubits
        block = buf.reshape(-1, 1 << len(qubits), 1 << qubits[0])
        fft = np.fft.fft if g.inverse else np.fft.ifft

        def fourier():
            block[...] = fft(block, axis=1, norm="ortho")

        return fourier
    controls, polarities = (g.qubits[:1], (1,)) if g.kind == CNOT else (g.controls, g.polarities)
    pair, axis = _pair_view(buf, g.target, controls, polarities)
    side = (slice(None),) * axis
    lo, hi = pair[side + (slice(0, 1),)], pair[side + (slice(1, 2),)]
    held = spare[: pair.size].reshape(pair.shape)
    if g.kind in (X, CNOT):
        swapped = pair[side + (slice(None, None, -1),)]

        def exchange():
            np.copyto(held, swapped)
            np.copyto(pair, held)

        return exchange
    if g.kind == SUPERPOSE:
        total, diff = held[side + (slice(0, 1),)], held[side + (slice(1, 2),)]

        def superpose():
            np.add(lo, hi, out=total)
            np.subtract(lo, hi, out=diff)
            np.multiply(held, _SQRT_HALF, out=pair)

        return superpose
    if g.kind == PHASE:
        return partial(np.multiply, hi, np.exp(1j * g.angle), out=hi)
    # mcrz: ``Gate`` refuses every other kind.
    lo_factor, hi_factor = np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle)

    def rotate():
        np.multiply(lo, lo_factor, out=lo)
        np.multiply(hi, hi_factor, out=hi)

    return rotate


def simulate(circuit: Circuit, psi: np.ndarray, check_norm: bool = True) -> np.ndarray:
    """Exact amplitude evolution of the circuit on the statevector ``psi``.

    ``psi`` is copied into the circuit's bound buffer (``Circuit.bound``), the
    gates update it in place strictly in sequence, and a fresh copy is
    returned; ``psi`` itself is never written.  The norm is checked after
    every gate when ``check_norm`` is set.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (1 << circuit.n_qubits,):
        raise QmaxwellError(
            f"state of shape {psi.shape} does not fit circuit on {circuit.n_qubits} qubits"
        )
    buf, updates = circuit.bound
    np.copyto(buf, psi)
    ref = np.linalg.norm(buf) if check_norm else 0.0
    for g, update in zip(circuit.gates, updates):
        update()
        if check_norm and abs(np.linalg.norm(buf) - ref) > 1e-10 * max(ref, 1.0):
            raise QmaxwellError(f"norm drifted after {g.kind} on {g.qubits}")
    return buf.copy()


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


def _lowering(g: Gate, n_qubits: int) -> list[Gate]:
    """``g`` in the base set {1-qubit, CNOT}: expanded if composite, else ``[g]``."""
    if g.kind == MCRZ and g.controls:
        return mcrz_lowering(g, n_qubits)
    if g.kind == FOURIER:
        return qft_gates(g.qubits, g.inverse)
    return [g]


def lowered_gates(circuit: Circuit):
    """Stream the circuit with every composite gate expanded to the base set."""
    for g in circuit.gates:
        yield from _lowering(g, circuit.n_qubits)


def _depth(operands, n_qubits: int) -> int:
    """Greedy depth of a stream of operand tuples, one tuple per gate in order."""
    frontier = [0] * n_qubits
    for qs in operands:
        if len(qs) == 1:
            frontier[qs[0]] += 1
        elif len(qs) == 2:
            a, b = qs
            fa, fb = frontier[a], frontier[b]
            frontier[a] = frontier[b] = (fa if fa > fb else fb) + 1
        else:
            layer = 1 + max(frontier[q] for q in qs)
            for q in qs:
                frontier[q] = layer
    return max(frontier, default=0)


def gate_stats(circuit: Circuit) -> dict:
    """Gate counts and greedy depth after lowering to {1-qubit, CNOT}.

    ``abstract_depth`` additionally reports the depth of the circuit as
    emitted (multi-controlled rotations and Fourier transforms counted as
    single gates), which is the granularity used for headline depth figures.

    Each distinct gate is lowered once per call.  Its key leaves out the
    angle, which changes no count and no layer; its value is the CNOT count
    and the tuple of operand tuples of its lowering, with equal operand
    tuples shared.  The depth then walks those streams in circuit order.
    """
    n = circuit.n_qubits
    lowered: dict[tuple, tuple[int, tuple]] = {}
    shared: dict[tuple, tuple] = {}
    streams = []
    two = total = 0
    for g in circuit.gates:
        key = (g.kind, g.qubits, g.polarities, g.inverse)
        entry = lowered.get(key)
        if entry is None:
            gates = _lowering(g, n)
            cnots = sum(1 for x in gates if x.kind == CNOT)
            operands = tuple(shared.setdefault(x.qubits, x.qubits) for x in gates)
            entry = lowered[key] = (cnots, operands)
        two += entry[0]
        total += len(entry[1])
        streams.append(entry[1])
    return {
        "two_qubit_count": two,
        "single_qubit_count": total - two,
        "depth": _depth(chain.from_iterable(streams), n),
        "abstract_depth": _depth((g.qubits for g in circuit.gates), n),
    }
