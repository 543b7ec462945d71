"""Sparse generator assembly for the semi-discrete curl equations.

Every operator here is a canonical ``scipy.sparse.csr_matrix`` (duplicates
summed, no stored zeros, sorted indices), built by :func:`as_csr`; equal
operators therefore have equal arrays.

The generator couples the stacked field blocks through one-dimensional
staggered difference factors combined by Kronecker products (x fastest).
One curl table serves 2D and 3D: a 2D grid keeps the ``E_z``, ``H_x`` and
``H_y`` rows and drops the terms whose source component it does not store.
Boundary faces modify the edge-to-node factors through ghost samples:
a PMC face reflects tangential magnetic samples antisymmetrically, which
doubles the surviving coefficient in the wall row; a PEC face reflects
them symmetrically, which cancels it.  Tangential electric samples pinned
by PEC faces are removed by zeroing their rows and columns.

An internal scatterer freezes every sample strictly inside its box, and its
walls close by the same ghost rule: a wall row that reads a frozen sample
reads a ghost, folded onto the row's mirror entry with the sign of the
body's face condition.  Behind a PMC wall that doubles the surviving
coefficient, exactly as at a PMC outer face; a PEC body pins its outline
``E_z`` rows, so nothing reads through its walls.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import GridError
from .grid import E_COMPONENTS, PEC, PMC, Component, FieldLayout, GridSpec

NODE_TO_EDGE = "node_to_edge"
EDGE_TO_NODE = "edge_to_node"


def as_csr(a) -> sp.csr_matrix:
    """Canonical CSR copy of a scipy sparse matrix or a dense array.

    Duplicates are summed, explicit zeros dropped and column indices sorted,
    so equal operators have equal ``indptr``/``indices``/``data`` arrays.
    """
    m = sp.csr_matrix(a, copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


def _ghost_sign(bc: str) -> float:
    # Antisymmetric reflection (PMC for tangential H) vs symmetric (PEC).
    return -1.0 if bc == PMC else 1.0


def staggered_derivative(
    n: int,
    delta: float,
    orientation: str,
    bc_lo: str = PMC,
    bc_hi: str | None = None,
) -> sp.csr_matrix:
    """1D central difference between the two staggered sample families.

    ``NODE_TO_EDGE`` differentiates integer-located samples onto half-offset
    locations; its last row is the zero pad.  ``EDGE_TO_NODE`` differentiates
    half-offset samples onto the integer nodes; its first and last rows touch
    the boundary and are closed with the ghost rule for ``bc_lo``/``bc_hi``
    (antisymmetric under PMC, symmetric under PEC).  The pad column is never
    referenced.
    """
    if n < 2:
        raise GridError(f"derivative needs n >= 2, got {n}")
    if orientation not in (NODE_TO_EDGE, EDGE_TO_NODE):
        raise GridError(f"unknown orientation {orientation!r}")
    bc_hi = bc_lo if bc_hi is None else bc_hi
    for bc in (bc_lo, bc_hi):
        if bc not in (PMC, PEC):
            raise GridError(f"unknown boundary condition {bc!r}")
    inv = 1.0 / delta
    rows, cols, vals = [], [], []
    if orientation == NODE_TO_EDGE:
        # Output at i+1/2 (stored i) from nodes i, i+1; all samples exist.
        for i in range(n - 1):
            rows += [i, i]
            cols += [i, i + 1]
            vals += [-inv, inv]
    else:
        # Output at node i from half samples i-1/2 (stored i-1) and i+1/2 (stored i).
        g_lo = _ghost_sign(bc_lo)
        rows.append(0)
        cols.append(0)
        vals.append((1.0 - g_lo) * inv)
        for i in range(1, n - 1):
            rows += [i, i]
            cols += [i - 1, i]
            vals += [-inv, inv]
        # Row n-1 reads the pad slot, i.e. the ghost across the high wall.
        g_hi = _ghost_sign(bc_hi)
        rows.append(n - 1)
        cols.append(n - 2)
        vals.append((g_hi - 1.0) * inv)
    return as_csr(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def _axis_factor(spec: GridSpec, axis: int, orientation: str) -> sp.csr_matrix:
    n = spec.shape[axis]
    delta = spec.spacing[axis]
    return staggered_derivative(
        n,
        delta,
        orientation,
        spec.boundaries.face(axis, 0),
        spec.boundaries.face(axis, 1),
    )


def _place_axis(spec: GridSpec, axis: int, d: sp.csr_matrix) -> sp.csr_matrix:
    """Embed a 1D factor into the flattened grid (x fastest, z slowest)."""
    eye = [sp.identity(spec.nx, format="csr"),
           sp.identity(spec.ny, format="csr"),
           sp.identity(spec.nz, format="csr")]
    eye[axis] = d
    out = sp.kron(sp.kron(eye[2], eye[1]), eye[0], format="csr")
    return out


# Curl table: component -> [(source, derivative axis, sign)].
_CURL = {
    Component.EX: [(Component.HZ, 1, +1.0), (Component.HY, 2, -1.0)],
    Component.EY: [(Component.HX, 2, +1.0), (Component.HZ, 0, -1.0)],
    Component.EZ: [(Component.HY, 0, +1.0), (Component.HX, 1, -1.0)],
    Component.HX: [(Component.EZ, 1, -1.0), (Component.EY, 2, +1.0)],
    Component.HY: [(Component.EX, 2, -1.0), (Component.EZ, 0, +1.0)],
    Component.HZ: [(Component.EY, 0, -1.0), (Component.EX, 1, +1.0)],
}


def assemble_generator(spec: GridSpec) -> sp.csr_matrix:
    """Curl generator on the padded layout (4N in 2D, 8N in 3D).

    Electric rows read magnetic blocks through edge-to-node factors (boundary
    ghosts applied per face), magnetic rows read electric blocks through
    node-to-edge factors, and the spare pad blocks are zero.  One ghost rule
    closes every wall: an active row that reads a sample strictly inside the
    body reads a ghost, which ``_ghost_sign(body.faces)`` reflects onto the
    row's other entry in the same source block.  Rows and columns of
    inactive samples are then zeroed.
    """
    layout = FieldLayout(spec)
    comps = layout.components
    inv = {True: 1.0 / spec.epsilon, False: 1.0 / spec.mu}
    grid = [[None] * layout.n_blocks for _ in range(layout.n_blocks)]
    for r, comp in enumerate(comps):
        is_e = comp in E_COMPONENTS
        orientation = EDGE_TO_NODE if is_e else NODE_TO_EDGE
        for src, axis, sign in _CURL[comp]:
            if src in comps:
                d = _axis_factor(spec, axis, orientation)
                grid[r][comps.index(src)] = sign * inv[is_e] * _place_axis(spec, axis, d)
    n = layout.block_size
    for b in range(len(comps), layout.n_blocks):
        grid[b][b] = sp.csr_matrix((n, n))
    a = sp.bmat(grid, format="csr")
    classes = layout.sample_classes()
    m = a.tocoo()
    ghost = classes.active[m.row] & classes.interior[m.col]
    rows, cols, vals = [], [], []
    for r, c, v in zip(m.row[ghost], m.col[ghost], m.data[ghost]):
        # Each E row reads each H block along one axis: the mirror is the other entry.
        row = a.indices[a.indptr[r]:a.indptr[r + 1]]
        (mirror,) = row[(row // n == c // n) & (row != c)]
        rows.append(r)
        cols.append(mirror)
        vals.append(_ghost_sign(spec.scatterer.faces) * v)
    d = sp.diags(classes.active.astype(float))
    return as_csr(d @ (a + sp.coo_matrix((vals, (rows, cols)), shape=a.shape)) @ d)


def scatterer_frozen_indices(spec: GridSpec) -> np.ndarray:
    """Flat indices of samples strictly inside the scatterer box."""
    return np.flatnonzero(FieldLayout(spec).sample_classes().interior)


def symmetrizing_weights(spec: GridSpec) -> np.ndarray:
    """Diagonal similarity scaling that restores skew symmetry at PMC faces.

    The doubled ghost coefficient at a PMC wall is skew under the trapezoidal
    inner product: rescaling every integer-located wall sample by 1/sqrt(2)
    per PMC face makes ``D A D^-1`` exactly antisymmetric for empty domains.
    PEC faces need no weight (their frozen wall samples already leave the
    active part skew), and scatterer wall lines cannot be covered by any
    diagonal scaling, so a body keeps a genuine symmetric part.
    """
    return (1.0 / math.sqrt(2.0)) ** FieldLayout(spec).sample_classes().pmc_faces


def apply_weights(a, weights: np.ndarray) -> sp.csr_matrix:
    """Similarity transform ``D A D^-1`` for a positive diagonal ``weights``."""
    d = sp.diags(weights)
    dinv = sp.diags(1.0 / weights)
    return as_csr(d @ a @ dinv)


def skew_defect(a) -> float:
    """Relative Frobenius size of the symmetric part, ||A + A^T||_F / ||A||_F."""
    m = as_csr(a)
    num = sp.linalg.norm(m + m.T)
    den = sp.linalg.norm(m)
    return float(num / den) if den > 0 else 0.0
