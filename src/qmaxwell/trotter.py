"""First-order product circuits for the lifted dynamics, plus a step runner.

``TrotterRunner`` and :func:`emit_trotter_circuit` take a ``HermitianPair``,
whose blocks serve every step size.  Each block emits its own gates
(``BellBlock.gates``); this module only orders, scales and repeats them.  The runner is a ``LiftedRunner``: the base
owns the lifted state, clock, recovery and readout; it simulates one step circuit.

One step applies every block of the skew part, then conjugates the symmetric
part's blocks by the auxiliary Fourier transform.  In frequency space the
symmetric generator is scaled by the signed frequency of the auxiliary
index, which is linear in the index bits (two's complement); each block
therefore appears once per auxiliary bit, with the rotation angle scaled by
that bit's frequency contribution and an extra control on the bit.  Those
per-bit factors commute, so the only splitting error is the usual one
between blocks.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .bell import BellBlock
from .circuit import FOURIER, MCRZ, PHASE, SUPERPOSE, Circuit, Gate, rz, simulate
from .grid import FieldState
from .lifting import HermitianPair, LiftedRunner, PRegister, check_step_count, hermitian_split


def xi_bit_scales(reg: PRegister) -> list[float]:
    """Frequency contribution of each auxiliary bit (two's complement)."""
    base = 2.0 * math.pi / (reg.n_points * reg.dp)
    scales = [base * (1 << j) for j in range(reg.n_a - 1)]
    scales.append(-base * (1 << (reg.n_a - 1)))
    return scales


def step_gates(
    h1_blocks: Sequence[BellBlock],
    h2_blocks: Sequence[BellBlock],
    reg: PRegister,
    n_sys: int,
    dt: float,
) -> list[Gate]:
    """One first-order product step of size ``dt`` on the joint register.

    The blocks hold no step size; ``dt`` enters here, in each block's
    rotation angle, so a compiled generator steps at any ``dt``.
    """
    gates: list[Gate] = []
    for b in h2_blocks:
        gates.extend(b.gates(dt))
    if h1_blocks:
        anc = tuple(range(n_sys, n_sys + reg.n_a))
        scaled = tuple(((q,), s) for q, s in zip(anc, xi_bit_scales(reg)))
        gates.append(Gate(FOURIER, anc))
        for b in h1_blocks:
            gates.extend(b.gates(dt, scaled))
        gates.append(Gate(FOURIER, anc, inverse=True))
    return gates


def _ry_gates(q: int, theta: float, controls=(), polarities=()) -> list[Gate]:
    # RY = S H RZ H S^dagger, with controls carried by the inner rotation.
    inner = (
        rz(q, theta)
        if not controls
        else Gate(MCRZ, tuple(controls) + (q,), theta, tuple(polarities))
    )
    return [
        Gate(PHASE, (q,), -math.pi / 2),
        Gate(SUPERPOSE, (q,)),
        inner,
        Gate(SUPERPOSE, (q,)),
        Gate(PHASE, (q,), math.pi / 2),
    ]


def amplitude_prep_gates(amps: np.ndarray, offset: int) -> list[Gate]:
    """Rotation tree preparing a nonnegative real amplitude vector from |0...0>."""
    amps = np.asarray(amps, dtype=float)
    if np.any(amps < 0):
        raise ValueError("amplitude prep expects nonnegative amplitudes")
    n = int(math.log2(len(amps)))

    def build(vec, qubit, controls, polarities):
        if len(vec) == 1:
            return []
        half = len(vec) // 2
        w0 = float(np.linalg.norm(vec[:half]))
        w1 = float(np.linalg.norm(vec[half:]))
        if w0 == 0 and w1 == 0:
            return []
        theta = 2.0 * math.atan2(w1, w0)
        gates = _ry_gates(qubit, theta, controls, polarities)
        if w0 > 0:
            gates += build(vec[:half], qubit - 1, controls + (qubit,), polarities + (0,))
        if w1 > 0:
            gates += build(vec[half:], qubit - 1, controls + (qubit,), polarities + (1,))
        return gates

    return build(amps, offset + n - 1, (), ())


def ancilla_prep_gates(reg: PRegister, n_sys: int) -> list[Gate]:
    """Gates loading the lift profile e^{-|p|} onto the auxiliary register."""
    amps = reg.profile / np.linalg.norm(reg.profile)
    if reg.n_a == 1 and abs(amps[0] - amps[1]) < 1e-15:
        return [Gate(SUPERPOSE, (n_sys,))]
    return amplitude_prep_gates(amps, n_sys)


def emit_trotter_circuit(pair: HermitianPair, reg: PRegister, steps: int, dt: float) -> Circuit:
    """Full circuit: auxiliary profile prep, then ``steps`` product steps of size ``dt``.

    With ``steps=0`` the circuit only prepares the lifted initial state
    (applied to the system register's own initial state on the low qubits).
    """
    n_sys = int(math.log2(pair.dim))
    gates = ancilla_prep_gates(reg, n_sys)
    step = step_gates(*pair.blocks, reg, n_sys, dt)
    for _ in range(steps):
        gates.extend(step)
    return Circuit(n_sys + reg.n_a, tuple(gates))


class TrotterRunner(LiftedRunner):
    """Lifted runner on the product circuit: one step circuit, simulated once per step.

    Prefer this over one monolithic circuit when intermediate states are
    needed (probe traces, error tables).  The per-step gate list is identical
    every step, so it is compiled once, and bound to its buffer once, by the
    first ``simulate`` call (see ``Circuit.bound``).
    """

    def __init__(self, pair: HermitianPair, u0: FieldState, reg: PRegister, dt: float):
        super().__init__(pair, u0, reg, dt)
        n_sys = int(math.log2(pair.dim))
        self.step_circuit = Circuit(n_sys + reg.n_a, tuple(step_gates(*pair.blocks, reg, n_sys, dt)))

    @staticmethod
    def from_generator(
        a, u0: FieldState, reg: PRegister, dt: float, weights: np.ndarray | None = None
    ) -> "TrotterRunner":
        """Split a generator and compile it, with an initial state, into a step runner.

        With ``weights`` the evolution runs in similarity-transformed
        variables ``D u`` under ``D A D^-1`` (used to restore exact skew
        symmetry at PMC walls); recovery maps back, so results are in the
        original variables either way.
        """
        return TrotterRunner(hermitian_split(a, weights), u0, reg, dt)

    def advance(self, steps: int) -> None:
        check_step_count(steps)
        for _ in range(steps):
            self.psi = simulate(self.step_circuit, self.psi, check_norm=False)
        self.steps_done += steps
