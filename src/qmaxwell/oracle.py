"""Classical ground truth and splitting-error tables.

The reference evolution is the exact matrix exponential, built once per
horizon by :func:`propagator`: dense scaling and squaring below the
desk-scale threshold, Krylov-subspace action above it.  Error tables run the
circuit pipeline against this reference over a grid of step sizes and
horizons.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import ConfigError, GridError
from .grid import Component, FieldState
from .lifting import PRegister, check_step_count, hermitian_split
from .operators import as_csr
from .trotter import TrotterRunner

log = logging.getLogger(__name__)

_DENSE_LIMIT = 4096
# The largest state, classical or joint, this desk-scale package takes on.
DIMENSION_CAP = 1 << 16


def propagator(a, t: float):
    """The map v -> exp(A t) v; dense below dimension 4096, Krylov action above.

    The dense branch exponentiates once here, so applying the map again
    costs one matrix-vector product.
    """
    m = as_csr(a)
    dim = m.shape[0]
    if dim > DIMENSION_CAP:
        raise ValueError(f"dimension {dim} exceeds the desk-scale cap {DIMENSION_CAP}")
    if t == 0.0:
        return np.copy
    if dim < _DENSE_LIMIT:
        return expm(m.toarray() * t).__matmul__
    return partial(expm_multiply, m.tocsc() * t)


def exact_evolution(a, u0, t: float):
    """u(t) = exp(A t) u0 by :func:`propagator`."""
    values = u0.values if isinstance(u0, FieldState) else np.asarray(u0, dtype=float)
    out = propagator(a, t)(values)
    if isinstance(u0, FieldState):
        return FieldState(values=out, layout=u0.layout, time=u0.time + t)
    return out


class OracleRunner:
    """The exact flow as a step runner: ``advance`` maps the current state by exp(A steps dt).

    The runner keeps the propagator of its last step gap and builds a new
    one only when the gap changes, so equal gaps cost one exponential in
    all.  A state that ``A`` annihilates is a fixed point (exp(At) v = v);
    that is decided once, from ``u0``, since exp(At) is invertible and
    commutes with ``A``, and such a runner builds no propagator.
    """

    def __init__(self, a, u0: FieldState, dt: float):
        self.m = as_csr(a)
        self.values, self.layout, self.dt, self.steps_done = u0.values, u0.layout, dt, 0
        self.fixed = not (self.m @ u0.values).any()
        self._gap = (0, np.copy)  # the last step gap and exp(A gap dt) as a map

    @property
    def time(self) -> float:
        return self.steps_done * self.dt

    def advance(self, steps: int) -> None:
        check_step_count(steps)
        if steps and not self.fixed:
            if self._gap[0] != steps:
                self._gap = (steps, propagator(self.m, steps * self.dt))
            self.values = self._gap[1](self.values)
        self.steps_done += steps

    def recover(self) -> FieldState:
        return FieldState(values=self.values, layout=self.layout, time=self.time)


def grid_step(t: float, dt: float) -> int:
    """Number of steps of size ``dt`` that reach ``t``; ConfigError off that grid.

    A step that is not positive and finite, or a time that is not finite, is
    a ConfigError too.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"step {dt} must be positive and finite")
    if not math.isfinite(t):
        raise ConfigError(f"time {t} must be finite")
    steps = round(t / dt)
    if steps < 0 or abs(steps * dt - t) > 1e-9:
        raise ConfigError(f"time {t} is not a nonnegative multiple of dt={dt}")
    return steps


@dataclass(frozen=True)
class ErrorRow:
    time: float
    dt: float
    errors: dict


@dataclass(frozen=True)
class ErrorTable:
    components: tuple[Component, ...]
    rows: tuple[ErrorRow, ...]

    def check_monotone(self) -> bool:
        """Errors should not shrink with the horizon; violations are logged."""
        ok = True
        by_dt = sorted(self.rows, key=lambda r: (r.dt, r.time))
        for dt, group in groupby(by_dt, key=lambda r: r.dt):
            rows = list(group)
            for a, b in zip(rows, rows[1:]):
                for comp in self.components:
                    if b.errors[comp] < a.errors[comp]:
                        log.warning(
                            "error for %s at dt=%g shrank from T=%g to T=%g",
                            comp.value, dt, a.time, b.time,
                        )
                        ok = False
        return ok

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            names = ",".join(c.value for c in self.components)
            fh.write(f"time,dt,{names}\n")
            for r in self.rows:
                errs = ",".join(repr(float(r.errors[c])) for c in self.components)
                fh.write(f"{r.time!r},{r.dt!r},{errs}\n")


def component_errors(state: FieldState, reference: FieldState) -> dict:
    """Per-component 2-norm distance between two field states."""
    layout = state.layout
    out = {}
    for comp in layout.components:
        diff = state.component(comp) - reference.component(comp)
        out[comp] = float(np.linalg.norm(diff))
    return out


def trotter_error_table(
    a,
    u0: FieldState,
    dts,
    times,
    reg: PRegister,
    weights: np.ndarray | None = None,
) -> ErrorTable:
    """Run the circuit pipeline over (dt, T) pairs and tabulate recovery errors.

    Horizons must be multiples of each step size (ConfigError otherwise),
    checked for every pair before any evolution.  The generator is compiled
    once; one runner per dt walks the requested horizons in order against
    one exact reference per horizon, read back by ``reg``'s recovery rule.
    ``weights`` runs it in similarity-scaled variables (see ``TrotterRunner``).
    """
    layout = u0.layout
    times = sorted(times)
    steps = [[grid_step(t, dt) for t in times] for dt in dts]
    references = [exact_evolution(a, u0, t) for t in times]
    pair = hermitian_split(a, weights)
    rows = []
    for dt, dt_steps in zip(dts, steps):
        runner = TrotterRunner(pair, u0, reg, dt)
        for t_target, s, reference in zip(times, dt_steps, references):
            runner.advance(s - runner.steps_done)
            rows.append(
                ErrorRow(time=t_target, dt=dt, errors=component_errors(runner.recover(), reference))
            )
    table = ErrorTable(components=layout.components, rows=tuple(rows))
    table.check_monotone()
    return table


# Each cut plane's axis in a component block shaped (nz, ny, nx).
PLANES = {"xy": 0, "xz": 1, "yz": 2}


def snapshot(state: FieldState, component: Component, plane: str = "xy", index: int = 0):
    """Extract one component on a cut plane; a 2D grid is its own "xy" plane at index 0.

    ``plane`` selects the cut ("xy" at a z index, "xz" at a y index, "yz" at
    an x index); rows of the returned array run along the plane's second
    letter, columns along the first.  An unknown plane or an index off the
    grid is a GridError.
    """
    arr = state.component(component)  # (nz, ny, nx)
    if plane not in PLANES:
        raise GridError(f"unknown plane {plane!r}")
    axis = PLANES[plane]
    if not 0 <= index < arr.shape[axis]:
        raise GridError(f"plane index {index} out of range for {plane}")
    return np.take(arr, index, axis)
