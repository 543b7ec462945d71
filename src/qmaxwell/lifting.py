"""Warped-phase lift: unitary embedding of a non-normal real generator.

The generator splits as ``A = H1 + i H2`` with both parts Hermitian.  An
auxiliary variable ``p`` carries the non-unitary part: the lifted profile
``e^{-|p|} u`` obeys a transport equation in ``p`` that a Fourier transform
decouples into one Hermitian generator ``xi*H1 + H2`` per frequency.  The
physical solution is read back above the spectral bound of ``H1`` by the
register's recovery rule: from the single slice ``p*`` rescaled by ``e^{p*}``,
or by a least-squares fit over every slice above the bound.

The ``p`` grid is uniform and cell-centered on ``[p_min, p_max)`` so that the
default symmetric window samples ``e^{-|p|}`` evenly and always contains a
strictly positive point.

The compiled generator is a :class:`HermitianPair`, which carries its Bell
blocks.  The lift lives in one place, :class:`LiftedRunner`: it builds the joint
state from a pair and reads the field back; subclasses only advance it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .bell import BellBlock, compile_blocks, order_blocks
from .errors import ConfigError, HermiticityError, RecoveryInfeasibleError
from .grid import FieldLayout, FieldState
from .operators import apply_weights, as_csr


@dataclass(frozen=True)
class HermitianPair:
    """Hermitian split ``D A D^-1 = h1 + i*h2`` of a real generator ``A``.

    ``weights`` is the diagonal of the similarity scaling ``D`` that the
    split was taken under (all ones when unscaled): the frame that lifting
    enters and recovery leaves.  Its :attr:`blocks` serve every step size.
    """

    h1: sp.csr_matrix
    h2: sp.csr_matrix
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.h1.shape[0]

    @cached_property
    def blocks(self) -> tuple[tuple[BellBlock, ...], tuple[BellBlock, ...]]:
        """The ``h1`` and ``h2`` Bell blocks in compile order, compiled on first use and kept."""
        return order_blocks(compile_blocks(self.h1)), order_blocks(compile_blocks(self.h2))


def hermitian_split(a, weights: np.ndarray | None = None) -> HermitianPair:
    """Split a real square operator, similarity-scaled by ``weights``, into its Hermitian components.

    With ``weights`` the operator split is ``M = D A D^-1`` for
    ``D = diag(weights)``, else ``M = A`` and the pair records unit weights.
    ``h1 = (M + M^T)/2`` is real symmetric and ``h2 = (M - M^T)/(2i)`` purely
    imaginary Hermitian; the reconstruction ``h1 + i*h2 = M`` is exact up to
    rounding.
    """
    m = as_csr(a if weights is None else apply_weights(a, weights))
    mt = m.T.tocsr()
    h1 = ((m + mt) * 0.5).tocsr()
    h2 = ((m - mt) * (-0.5j)).tocsr()
    # Drop pure rounding residues so an exactly-skew (or exactly-symmetric)
    # generator yields a structurally empty counterpart; the reconstruction
    # stays within 1e-14 of A.
    if m.nnz:
        floor = 1e-15 * float(np.max(np.abs(m.data)))
        for h in (h1, h2):
            h.data[np.abs(h.data) <= floor] = 0.0
            h.eliminate_zeros()
    scale = max(sp.linalg.norm(m), 1.0)
    if sp.linalg.norm(h1 + 1j * h2 - m) > 1e-14 * scale:
        raise HermiticityError("h1 + i*h2 does not reconstruct the generator")
    if sp.linalg.norm(h1 - h1.conj().T) > 1e-14 * scale:
        raise HermiticityError("h1 is not Hermitian")
    if sp.linalg.norm(h2 - h2.conj().T) > 1e-14 * scale:
        raise HermiticityError("h2 is not Hermitian")
    return HermitianPair(h1=h1, h2=h2, weights=np.ones(m.shape[0]) if weights is None else weights)


def lifted_hamiltonian(pair: HermitianPair, xi: float) -> sp.csr_matrix:
    """Hermitian generator of one decoupled frequency branch."""
    return (xi * pair.h1 + pair.h2).tocsr()


RECOVERY_MODES = ("single", "lsq")


@dataclass(frozen=True)
class PRegister:
    """Uniform cell-centered auxiliary grid, its Fourier frequencies and its ``recovery`` rule."""

    n_a: int
    p_min: float = -math.pi
    p_max: float = math.pi
    recovery: str = "single"

    def __post_init__(self):
        if self.n_a < 1:
            raise ValueError("need at least one auxiliary qubit")
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(f"unknown recovery mode {self.recovery!r}")
        if not (math.isfinite(self.p_min) and math.isfinite(self.p_max)):
            raise ValueError("p window must be finite")
        if self.p_max <= self.p_min:
            raise ValueError("p_max must exceed p_min")
        if self.p_star <= 0:
            raise ValueError("auxiliary grid must contain a positive point")
        if self.p_star > math.log(sys.float_info.max):
            raise ValueError(f"recovery point {self.p_star:.6g} overflows its rescaling e^p*")

    @property
    def n_points(self) -> int:
        return 1 << self.n_a

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_points

    @property
    def p_values(self) -> np.ndarray:
        k = np.arange(self.n_points)
        return self.p_min + (k + 0.5) * self.dp

    @property
    def profile(self) -> np.ndarray:
        """The lift profile ``e^{-|p|}`` on the grid: slice weights of the lifted state."""
        return np.exp(-np.abs(self.p_values))

    @property
    def p_star_index(self) -> int:
        """Slice of the recovery point ``p*``, the largest grid point."""
        return self.n_points - 1

    @property
    def p_star(self) -> float:
        """The recovery point: the solution is read from this slice, rescaled by ``e^{p*}``."""
        return float(self.p_values[self.p_star_index])

    @property
    def xi_values(self) -> np.ndarray:
        """Signed frequencies in FFT order (index bit pattern = two's complement)."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dp)


def evolve_lifted_exact(pair: HermitianPair, reg: PRegister, v0: np.ndarray, t: float) -> np.ndarray:
    """Circuit-free reference evolution of the lifted state.

    Transforms along the auxiliary axis, propagates each frequency branch by
    the Krylov action of its Hermitian generator's exponential, and
    transforms back.  Norm is preserved to rounding (each branch is unitary).
    """
    v0 = np.asarray(v0, dtype=complex)
    d = pair.dim
    branches = np.fft.ifft(v0.reshape(reg.n_points, d), axis=0)
    for k, xi in enumerate(reg.xi_values):
        gen = lifted_hamiltonian(pair, float(xi))
        branches[k] = expm_multiply(1j * t * gen.tocsc(), branches[k])
    return np.fft.fft(branches, axis=0).reshape(-1)


_BOUND_HORIZON = 1.0


def recovery_bound(pair: HermitianPair, t: float) -> float:
    """Minimum usable recovery point: ``max(0, lambda_max(h1) * t_heuristic)``.

    ``lambda_max(h1)`` enters through its Gershgorin upper bound
    ``max_i (h_ii + sum_{j != i} |h_ij|)``, so the guard is conservative.

    The horizon entering the bound is capped at ``_BOUND_HORIZON``: the
    worst-case wavefront estimate ``lambda_max * t`` assumes the symmetric
    part stays fully occupied, which the localized boundary modes of the
    discretized curl never do; an uncapped bound would refuse every long
    horizon while wide windows demonstrably amplify noise instead of helping.
    Recovery quality over long horizons is measured by the error tables, not
    asserted here.
    """
    h = pair.h1.real
    diag = h.diagonal()
    edge = np.max(np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag) + diag)
    return max(0.0, float(edge) * min(t, _BOUND_HORIZON))


def feasible_bound(pair: HermitianPair, reg: PRegister, t: float) -> float:
    """The recovery bound at ``t``, once the recovery point ``p*`` is known to exceed it.

    ``p*`` is ``reg.p_star``; a window whose ``p*`` does not exceed the bound
    raises :class:`RecoveryInfeasibleError`.
    """
    bound = recovery_bound(pair, t)
    p_star = reg.p_star
    if p_star <= bound:
        raise RecoveryInfeasibleError(
            f"largest auxiliary point {p_star:.4g} does not exceed the spectral "
            f"bound {bound:.4g}; extend the p window beyond {bound:.4g}",
            required_p=bound,
        )
    return bound


def check_step_count(steps: int) -> None:
    """Refuse a negative step count with ConfigError, before a runner's state or clock moves.

    Every runner's ``advance`` steps forward only: a negative count would
    set the clock back without a flow that evolves the state with it.
    """
    if steps < 0:
        raise ConfigError(f"cannot advance by {steps} steps; the step count must be nonnegative")


class LiftedRunner:
    """The lifted state of ``D u0`` and its read-back; subclasses supply ``advance``.

    Slice ``k`` of the joint state holds ``e^{-|p_k|} D u0`` (the even
    extension of the decay profile), with the auxiliary index outer.
    ``psi`` is that state normalized and ``norm`` the physical scale it was
    divided by.  ``D`` is ``pair.weights``, the similarity scaling that
    ``pair`` was split under; recovery divides it back out, so results are
    in the original variables either way.
    """

    def __init__(self, pair: HermitianPair, u0: FieldState, reg: PRegister, dt: float):
        u = pair.weights * u0.values
        if np.linalg.norm(u) == 0:
            raise ValueError("cannot lift a zero-norm initial state")
        joint = np.kron(reg.profile, u).astype(complex)
        self.norm = float(np.linalg.norm(joint))
        self.pair, self.psi = pair, joint / self.norm
        self.reg, self.dt, self.layout = reg, dt, u0.layout
        self.steps_done = 0

    @property
    def time(self) -> float:
        return self.steps_done * self.dt

    def recover(self) -> FieldState:
        """Physical field at the current time, read by the register's recovery rule."""
        return recover_solution(self.psi, self.reg, self.pair, self.time, self.norm, self.layout)

    def readout(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``p*`` slice of ``psi`` and each sample's physical scale ``e^{p*} * norm / w``.

        Sign readout needs one slice, so this reads ``p*`` whatever ``reg.recovery``.
        """
        feasible_bound(self.pair, self.reg, self.time)
        amps = self.psi.reshape(self.reg.n_points, -1)[self.reg.p_star_index]
        return amps, math.exp(self.reg.p_star) * self.norm / self.pair.weights


class LiftedExactRunner(LiftedRunner):
    """Lifted runner without a circuit: ``evolve_lifted_exact`` by ``steps * dt``."""

    def advance(self, steps: int) -> None:
        check_step_count(steps)
        if steps:
            self.psi = evolve_lifted_exact(self.pair, self.reg, self.psi, steps * self.dt)
        self.steps_done += steps


def recover_solution(
    v: np.ndarray, reg: PRegister, pair: HermitianPair, t: float, norm: float, layout: FieldLayout
) -> FieldState:
    """Read the physical field at time ``t`` back from the lifted state ``v``.

    ``reg.recovery`` (one of ``RECOVERY_MODES``) picks the rule.  ``"single"``
    evaluates the recovery point ``p*`` (``reg.p_star``) and rescales by
    ``e^{p*}``; it must lie above the spectral bound or recovery is refused.
    ``"lsq"`` solves the least-squares fit over every point above the bound
    instead.  ``norm`` restores the physical scale of the normalized state,
    and dividing by ``pair.weights`` undoes the similarity scaling the pair
    was split under.  The imaginary residue, pure p-discretization noise, is
    dropped.
    """
    v = np.asarray(v, dtype=complex).reshape(reg.n_points, -1)
    bound = feasible_bound(pair, reg, t)
    if reg.recovery == "single":
        u = math.exp(reg.p_star) * norm * v[reg.p_star_index]
    else:
        sel = reg.p_values > bound
        w = reg.profile[sel]
        u = (w[:, None] * (norm * v[sel])).sum(axis=0) / np.sum(w * w)
    return FieldState(values=u.real / pair.weights, layout=layout, time=t)
