"""Staggered-grid field layout and index arithmetic.

Electric components live at integer positions along their own axis offset by
half a cell, magnetic components at the complementary half-offsets.  Every
component is stored as a full ``nx*ny*nz`` block; samples that the staggering
removes (one per half-offset axis) are kept as zero pads at the high end of
that axis so the state length stays a power of two.

State layout (x fastest):

* 2D: ``[E_z, H_x, H_y, pad]`` blocks, total length ``4*nx*ny``
* 3D: ``[E_x, E_y, E_z, H_x, H_y, H_z, pad, pad]``, total ``8*nx*ny*nz``

All types here are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, GridError, PlacementError

PMC = "pmc"
PEC = "pec"


class Component(Enum):
    EX = "Ex"
    EY = "Ey"
    EZ = "Ez"
    HX = "Hx"
    HY = "Hy"
    HZ = "Hz"

    def __str__(self) -> str:
        return self.value


COMPONENTS_2D = (Component.EZ, Component.HX, Component.HY)
COMPONENTS_3D = (
    Component.EX,
    Component.EY,
    Component.EZ,
    Component.HX,
    Component.HY,
    Component.HZ,
)

# Axes (0=x, 1=y, 2=z) along which a component sits at half-integer offsets.
# A 2D grid is one z sample thick, so it keeps the axes below 2.
_STAGGER = {
    Component.EX: (0,),
    Component.EY: (1,),
    Component.EZ: (2,),
    Component.HX: (1, 2),
    Component.HY: (0, 2),
    Component.HZ: (0, 1),
}


def component_name(name: str) -> Component:
    """Look up a component from its short name, case-insensitively."""
    for c in Component:
        if c.value.lower() == name.lower():
            return c
    raise GridError(f"unknown field component {name!r}")


@dataclass(frozen=True)
class Boundaries:
    """Per-face boundary conditions, one of ``"pmc"`` or ``"pec"``.

    The z faces are inert in 2D mode (the retained components satisfy any
    z-face condition identically) and are kept for bookkeeping only.  In 3D
    a z-invariant field reduces exactly to the 2D one only with PEC z faces:
    a PMC z ghost doubles dH/dz at the wall (for an ``E_z`` line source at
    T = 10 the exact midplane ``H_x`` then has NCC 0.991 with 2D, slices
    differ by up to 0.078, and ``E_x``, ``E_y``, ``H_z`` reach 0.34).
    """

    xlo: str = PMC
    xhi: str = PMC
    ylo: str = PMC
    yhi: str = PMC
    zlo: str = PMC
    zhi: str = PMC

    def __post_init__(self):
        for face in ("xlo", "xhi", "ylo", "yhi", "zlo", "zhi"):
            if getattr(self, face) not in (PMC, PEC):
                raise GridError(f"boundary {face} must be 'pmc' or 'pec'")

    def face(self, axis: int, side: int) -> str:
        """Condition at ``axis`` (0..2) and ``side`` (0=lo, 1=hi)."""
        return (
            (self.xlo, self.xhi),
            (self.ylo, self.yhi),
            (self.zlo, self.zhi),
        )[axis][side]


@dataclass(frozen=True)
class ScattererBox:
    """Axis-aligned internal body with walls on integer node planes.

    Samples strictly inside the open box ``(lo, hi)`` are frozen at zero;
    samples on the wall planes stay active, except that PEC ``faces`` pin the
    tangential ``E_z`` on the outline.  ``faces`` is the condition the body's
    lateral walls impose on the surrounding field.  The box must span at
    least one cell on both axes; a point or a plate is a ``GeometryError``,
    and so (in ``GridSpec``) is a PMC box one cell wide on both axes.
    """

    lo: tuple[int, int]
    hi: tuple[int, int]
    faces: str = PMC

    def __post_init__(self):
        if self.faces not in (PMC, PEC):
            raise GridError("scatterer faces must be 'pmc' or 'pec'")
        if len(self.lo) != 2 or len(self.hi) != 2:
            raise GridError("scatterer corners must be (i, j) pairs")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise GeometryError("scatterer hi corner must exceed lo corner on both axes")


@dataclass(frozen=True)
class GridSpec:
    """Computational grid: sizes, spacings, boundary conditions, material constants.

    ``nx``, ``ny`` (and ``nz`` in 3D) count samples per axis and must be
    powers of two; ``nz`` is 1 in 2D mode.
    """

    nx: int
    ny: int
    nz: int = 1
    dim: int = 2
    dx: float = 1.0
    dy: float = 1.0
    dz: float = 1.0
    boundaries: Boundaries = field(default_factory=Boundaries)
    scatterer: ScattererBox | None = None
    epsilon: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GridError("dim must be 2 or 3")
        axes = [self.nx, self.ny] + ([self.nz] if self.dim == 3 else [])
        for n in axes:
            if n < 2 or n & (n - 1):
                raise GridError(f"axis size {n} is not a power of two >= 2")
        if self.dim == 2 and self.nz != 1:
            raise GridError("nz must be 1 in 2D mode")
        if min(self.dx, self.dy, self.dz) <= 0:
            raise GridError("grid spacings must be positive")
        if self.epsilon <= 0 or self.mu <= 0:
            raise GridError("epsilon and mu must be positive")
        if self.scatterer is not None:
            if self.dim != 2:
                raise GeometryError("internal scatterers are supported in 2D only")
            lo, hi = self.scatterer.lo, self.scatterer.hi
            if not (
                0 < lo[0] and hi[0] < self.nx - 1 and 0 < lo[1] and hi[1] < self.ny - 1
            ):
                raise GeometryError(
                    "scatterer walls must lie strictly inside the outer boundary"
                )
            if self.scatterer.faces == PMC and all(h - l == 1 for l, h in zip(lo, hi)):
                # No sample lies strictly inside, so no wall reads a ghost:
                # the box would change nothing.
                raise GeometryError("a PMC scatterer one cell wide on both axes has no effect")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def spacing(self) -> tuple[float, float, float]:
        return (self.dx, self.dy, self.dz)

    @property
    def components(self) -> tuple[Component, ...]:
        return COMPONENTS_2D if self.dim == 2 else COMPONENTS_3D

    def staggered_axes(self, component: Component) -> tuple[int, ...]:
        if component not in self.components:
            raise GridError(f"component {component} not present in {self.dim}D mode")
        return tuple(ax for ax in _STAGGER[component] if ax < self.dim)


E_COMPONENTS = (Component.EX, Component.EY, Component.EZ)


class SampleClass(NamedTuple):
    """Classes of stored samples, elementwise over the indices they were computed for.

    ``pec`` marks tangential E pinned to zero by a PEC outer face or by the
    outline of a PEC body; ``interior`` marks samples strictly inside the
    scatterer; ``pmc_faces`` counts the PMC outer faces a sample sits on
    (at most 2), each of which scales its symmetrizing weight by 1/sqrt(2).
    """

    pad: np.ndarray | bool
    pec: np.ndarray | bool
    interior: np.ndarray | bool
    pmc_faces: np.ndarray | int

    @property
    def active(self) -> np.ndarray:
        """Free degrees of freedom: neither pad, pinned nor inside the body."""
        return np.logical_not(self.pad | self.pec | self.interior)


@dataclass(frozen=True)
class FieldLayout:
    """Mapping between (component, i, j, k) samples and flat state indices."""

    spec: GridSpec

    @property
    def block_size(self) -> int:
        return self.spec.nx * self.spec.ny * self.spec.nz

    @property
    def n_blocks(self) -> int:
        """Block count including zero pads (4 in 2D, 8 in 3D)."""
        return 4 if self.spec.dim == 2 else 8

    @property
    def state_len(self) -> int:
        return self.n_blocks * self.block_size

    @property
    def components(self) -> tuple[Component, ...]:
        return self.spec.components

    def block_index(self, component: Component) -> int:
        try:
            return self.components.index(component)
        except ValueError:
            raise GridError(
                f"component {component} not present in {self.spec.dim}D mode"
            ) from None

    def flat_index(self, component: Component, i: int, j: int, k: int = 0) -> int:
        """Flat state index of one stored sample (pads addressable)."""
        spec = self.spec
        if not (0 <= i < spec.nx and 0 <= j < spec.ny and 0 <= k < spec.nz):
            raise GridError(
                f"index ({i},{j},{k}) out of range for grid {spec.shape}"
            )
        block = self.block_index(component)
        return block * self.block_size + (k * spec.ny + j) * spec.nx + i

    def classify(self, component: Component, i, j, k=0) -> SampleClass:
        """Class of the ``component`` samples at index arrays ``i, j, k`` (or scalars).

        The one definition of pads, PEC-pinned samples, the scatterer
        interior and PMC-face counts; every mask and weight derives from it.
        Only elementwise operators (``|``, ``&``, ``+``, comparisons) are
        used, so index arrays and plain ints share this code; a result that
        no index touched stays a scalar and broadcasts.
        """
        spec = self.spec
        stag = spec.staggered_axes(component)
        is_e = component in E_COMPONENTS
        idx = (i, j, k)
        pad = pec = interior = False
        pmc_faces = 0
        for ax in range(spec.dim):
            last = idx[ax] == spec.shape[ax] - 1
            if ax in stag:
                pad = pad | last
                continue
            for side, on_face in enumerate((idx[ax] == 0, last)):
                if spec.boundaries.face(ax, side) == PMC:
                    pmc_faces = pmc_faces + on_face
                elif is_e:
                    pec = pec | on_face
        body = spec.scatterer
        if body is not None:
            x, y = (idx[ax] + (0.5 if ax in stag else 0.0) for ax in (0, 1))
            (lx, ly), (hx, hy) = body.lo, body.hi
            interior = (lx < x) & (x < hx) & (ly < y) & (y < hy)
            if body.faces == PEC and is_e:
                closed = (lx <= x) & (x <= hx) & (ly <= y) & (y <= hy)
                pec = pec | (closed & ((x == lx) | (x == hx) | (y == ly) | (y == hy)))
        return SampleClass(pad=pad, pec=pec, interior=interior, pmc_faces=pmc_faces)

    def sample_classes(self) -> SampleClass:
        """Class of every stored sample as flat state-length arrays; spare blocks are pads."""
        spec = self.spec
        shape = (spec.nz, spec.ny, spec.nx)
        k, j, i = np.indices(shape)
        parts = [self.classify(comp, i, j, k) for comp in self.components]
        n_spare = self.state_len - len(parts) * self.block_size
        spare = SampleClass(pad=True, pec=False, interior=False, pmc_faces=0)
        return SampleClass(*(
            np.concatenate([np.broadcast_to(v, shape).ravel() for v in vs] + [np.full(n_spare, fill)])
            for *vs, fill in zip(*parts, spare)
        ))

    def is_active(self, component: Component, i: int, j: int, k: int = 0) -> bool:
        """True for a free degree of freedom (not pad, frozen, or excluded)."""
        return bool(self.classify(component, i, j, k).active)

    def active_mask(self) -> np.ndarray:
        """Boolean mask over the full state; False marks structurally-zero slots."""
        return self.sample_classes().active

    def component_values(self, values: np.ndarray, component: Component) -> np.ndarray:
        """View of one component's block shaped (nz, ny, nx)."""
        b = self.block_index(component)
        spec = self.spec
        block = values[b * self.block_size : (b + 1) * self.block_size]
        return block.reshape(spec.nz, spec.ny, spec.nx)


@dataclass(frozen=True)
class FieldState:
    """Flattened padded field stack at one instant.

    ``values`` is treated as immutable; operations return new states.
    """

    values: np.ndarray
    layout: FieldLayout
    time: float = 0.0

    def __post_init__(self):
        if self.values.shape != (self.layout.state_len,):
            raise GridError(
                f"state length {self.values.shape} does not match layout "
                f"({self.layout.state_len},)"
            )

    def component(self, component: Component) -> np.ndarray:
        return self.layout.component_values(self.values, component)

    def at(self, component: Component, i: int, j: int, k: int = 0) -> float:
        return float(self.values[self.layout.flat_index(component, i, j, k)])


def qubit_count(spec: GridSpec) -> int:
    """Register width needed for the padded state (exact by the power-of-two invariants)."""
    length = FieldLayout(spec).state_len
    n = int(math.log2(length))
    if 1 << n != length:
        raise GridError(f"padded state length {length} is not a power of two")
    return n


def pack_initial_condition(
    spec: GridSpec,
    impulses: list[tuple[Component, int, int, int, float]],
) -> FieldState:
    """Build an initial state from point impulses.

    Each impulse is ``(component, i, j, k, amplitude)``; ``k`` must be 0 in
    2D mode.  Impulses on pad slots, PEC-pinned samples (outer walls or a
    PEC body outline), or inside a scatterer are placement errors.
    """
    layout = FieldLayout(spec)
    values = np.zeros(layout.state_len)
    classes = layout.sample_classes()
    for comp, i, j, k, amp in impulses:
        if spec.dim == 2 and k != 0:
            raise PlacementError(f"k={k} impulse index in 2D mode")
        idx = layout.flat_index(comp, i, j, k)
        if classes.pad[idx]:
            raise PlacementError(f"impulse at {comp}({i},{j},{k}) is a pad slot")
        if classes.interior[idx]:
            raise PlacementError(f"impulse at {comp}({i},{j},{k}) lies inside the scatterer")
        if classes.pec[idx]:
            raise PlacementError(f"impulse at {comp}({i},{j},{k}) sits on a PEC wall")
        values[idx] += amp
    return FieldState(values=values, layout=layout, time=0.0)

