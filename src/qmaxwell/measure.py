"""Sign-resolved probe readout from simulated quantum states.

Probes read the recovery slice of a lifted runner: ``LiftedRunner.readout``
returns its amplitudes and the physical scale of each sample, and owns the
recovery-point rule and its feasibility guard.  This module only turns
amplitudes into signed field values.

A statevector is only defined up to a global phase, so absolute field signs
are pinned by shifting one reference component positive before evolving: the
reference amplitude then never changes sign, every other sign is chained to
it through a two-amplitude interference comparison, and the shift is removed
afterwards by subtracting its own evolved response (the shift is a full field
configuration and generally evolves; subtracting the evolved response is
exact by linearity).  A comparison that cannot decide returns sign 0, which
travels as data: the reading's value is nan and its sign 0.

Shot mode draws from the caller's generator and never from a fresh one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QmaxwellError
from .grid import Component, FieldLayout, FieldState

EXACT = "exact"
_EPS = np.finfo(float).eps
# Largest imaginary part, relative to the target amplitude, that still reads as phase 0 or pi.
_PHASE_TOL = 1e-6


@dataclass(frozen=True)
class ProbeRequest:
    component: Component
    i: int
    j: int
    k: int = 0


@dataclass(frozen=True)
class MagnitudeEstimate:
    value: float
    stderr: float
    shots_used: int | str

    def __post_init__(self):
        if not self.value >= 0:
            raise QmaxwellError(f"magnitude estimate {self.value} is negative")


@dataclass(frozen=True)
class SignedReading:
    magnitude: float
    sign: int
    value: float
    shots_used: int | str

    def __post_init__(self):
        if self.magnitude < 0:  # nan: an indeterminate reading whose magnitude is unknown
            raise QmaxwellError(f"reading magnitude {self.magnitude} is negative")


def offset_bound(u0: FieldState) -> float:
    """Certified bound on any component's excursion: the initial 2-norm."""
    return float(np.linalg.norm(u0.values))


def apply_offset(u0: FieldState, component: Component, c: float) -> FieldState:
    """Shift one component by +c at every active sample.

    ``c`` must exceed the largest negative excursion the component can reach;
    for a unit impulse that bound is the initial norm, and choosing ``c``
    exactly at the bound is allowed but flagged.
    """
    if c <= 0:
        raise ValueError("offset must be positive")
    bound = offset_bound(u0)
    if c <= bound:
        warnings.warn(
            f"offset {c} does not strictly exceed the certified excursion "
            f"bound {bound}; the shifted component may touch zero",
            stacklevel=2,
        )
    values = u0.values + c * unit_offset_state(u0.layout, component).values
    return FieldState(values=values, layout=u0.layout, time=u0.time)


def unit_offset_state(layout: FieldLayout, component: Component) -> FieldState:
    """Unit shift configuration of one component (all active samples at 1)."""
    values = np.zeros(layout.state_len)
    block = layout.component_values(values, component)
    block[...] = layout.component_values(layout.active_mask(), component)
    return FieldState(values=values, layout=layout, time=0.0)


def remove_offset(
    evolved: FieldState, c: float, offset_response: FieldState
) -> FieldState:
    """Subtract the evolved shift response: physical = evolved - c * response.

    The response must be the evolution of the unit shift to the same time;
    naive constant subtraction is only correct at t = 0.
    """
    if c <= 0:
        raise ValueError("offset must be positive")
    if abs(evolved.time - offset_response.time) > 1e-9:
        raise ValueError(
            f"offset response at t={offset_response.time} does not match "
            f"field at t={evolved.time}"
        )
    return FieldState(
        values=evolved.values - c * offset_response.values,
        layout=evolved.layout,
        time=evolved.time,
    )


def magnitude_at(
    amps: np.ndarray,
    flat_index: int,
    scale: float,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> MagnitudeEstimate:
    """|amplitude| at one probe slot of the recovery slice, rescaled to physical units.

    ``scale`` is the slot's physical scale from ``LiftedRunner.readout``.
    With ``shots`` the estimate comes from simulated measurement frequencies
    drawn from ``rng``, with its binomial standard error.
    """
    amp = amps[flat_index]
    if shots is None:
        return MagnitudeEstimate(abs(amp) * scale, 0.0, EXACT)
    p = min(abs(amp) ** 2, 1.0)
    hits = rng.binomial(shots, p)
    phat = hits / shots
    value = math.sqrt(phat) * scale
    if phat > 0:
        se = scale * math.sqrt(phat * (1 - phat) / shots) / (2 * math.sqrt(phat))
    else:
        se = scale * 0.5 / math.sqrt(shots)
    return MagnitudeEstimate(value, se, shots)


def relative_sign(
    psi: np.ndarray,
    ref_index: int,
    target_index: int,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> int:
    """Interference comparison of two amplitudes: +1 same sign, -1 opposite, 0 undecided.

    The target is taken in the reference's phase frame, where it must be
    real; the squared sum and squared difference of the two amplitudes are
    then compared, and whichever dominates decides the sign.  The sign is
    undecided (0) when the reference vanishes, the relative phase is not 0
    or pi, the two estimates tie (exact mode), or there are no interference
    counts or a gap below three combined standard errors (shot mode).  Shot
    mode draws one multinomial from ``rng``, after both frame checks.
    """
    a_r = psi[ref_index]
    if abs(a_r) == 0.0:
        return 0
    r = abs(a_r)
    at = psi[target_index] * (a_r / r).conjugate()
    if abs(at.imag) > _PHASE_TOL * max(abs(at), 1.0e-30):
        return 0
    e_plus = (r + at.real) ** 2 / 2.0
    e_minus = (r - at.real) ** 2 / 2.0
    if shots is None:
        return 0 if e_plus == e_minus else 1 if e_plus > e_minus else -1
    rest = max(1.0 - e_plus - e_minus, 0.0)
    n_plus, n_minus, _ = rng.multinomial(shots, [e_plus, e_minus, rest])
    if n_plus + n_minus == 0 or abs(int(n_plus) - int(n_minus)) < 3.0 * math.sqrt(n_plus + n_minus):
        return 0
    return 1 if n_plus > n_minus else -1


@dataclass(frozen=True)
class PipelineState:
    """Read-only measurement context for one recovered instant.

    ``amps`` is the runner's recovery slice and ``scales`` the physical scale
    of each of its samples (see ``LiftedRunner.readout``).
    """

    amps: np.ndarray
    scales: np.ndarray
    layout: FieldLayout
    offset_c: float
    offset_response: FieldState
    reference: ProbeRequest


def pipeline_state(
    runner,
    offset_c: float,
    offset_response: FieldState,
    reference: ProbeRequest,
) -> PipelineState:
    """Measurement context from a lifted runner at its current time."""
    amps, scales = runner.readout()
    return PipelineState(amps, scales, runner.layout, offset_c, offset_response, reference)


def signed_field_at(
    request: ProbeRequest,
    pipe: PipelineState,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> SignedReading:
    """Full probe readout: magnitude, chained sign, and offset removal.

    The reference component's sign is absolute (+1) by the offset guarantee;
    the target sign is taken relative to it.  In exact mode a target
    amplitude at or below rounding of the reference amplitude (``eps`` times
    its modulus, exact zero included) reads as zero: its phase is noise.
    An indeterminate sign gives value nan and sign 0, with the magnitude of
    the same draw where the probe carries no offset correction and nan
    where it does; with a drawn magnitude of 0 and no correction the reading
    is a certain zero (sign +1), as in exact mode.
    """
    layout = pipe.layout
    flat_t = layout.flat_index(request.component, request.i, request.j, request.k)
    flat_r = layout.flat_index(
        pipe.reference.component, pipe.reference.i, pipe.reference.j, pipe.reference.k
    )
    est = magnitude_at(pipe.amps, flat_t, pipe.scales[flat_t], shots, rng)
    correction = pipe.offset_c * pipe.offset_response.at(
        request.component, request.i, request.j, request.k
    )
    if request == pipe.reference:
        sign = 1
    elif shots is None and abs(pipe.amps[flat_t]) <= _EPS * abs(pipe.amps[flat_r]):
        sign = 1  # zero to rounding: sign is immaterial
    else:
        sign = relative_sign(pipe.amps, flat_r, flat_t, shots, rng)
        if sign == 0:
            if est.value != 0 or correction != 0:
                magnitude = est.value if correction == 0 else math.nan
                return SignedReading(magnitude, 0, math.nan, est.shots_used)
            sign = 1  # zero hits and no correction: the reading is 0 whatever the sign
    value = sign * est.value - correction
    return SignedReading(
        magnitude=abs(value),
        sign=1 if value >= 0 else -1,
        value=value,
        shots_used=est.shots_used,
    )
