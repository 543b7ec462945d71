"""Sparse generator assembly for the semi-discrete curl equations.

The generator couples the stacked field blocks through one-dimensional
staggered difference factors combined by Kronecker products (x fastest).
Boundary faces modify the edge-to-node factors through ghost samples:
a PMC face reflects tangential magnetic samples antisymmetrically, which
doubles the surviving coefficient in the wall row; a PEC face reflects
them symmetrically, which cancels it.  Tangential electric samples pinned
by PEC faces are removed by zeroing their rows and columns.

An internal scatterer freezes every sample strictly inside its box and
re-closes the wall-node stencils with the same ghost rule as the outer
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError, GridError
from .grid import PEC, PMC, Component, FieldLayout, GridSpec

NODE_TO_EDGE = "node_to_edge"
EDGE_TO_NODE = "edge_to_node"


@dataclass(frozen=True)
class SparseOperator:
    """Real sparse matrix in canonical triplet form.

    Entries are deduplicated, sorted by (row, col), and never store explicit
    zeros.  Instances are immutable and shareable.
    """

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @staticmethod
    def from_coo(nrows, ncols, rows, cols, vals) -> "SparseOperator":
        m = sp.coo_matrix(
            (np.asarray(vals, dtype=float), (rows, cols)), shape=(nrows, ncols)
        ).tocsr()
        m.sum_duplicates()
        m.eliminate_zeros()
        coo = m.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return SparseOperator(
            nrows,
            ncols,
            coo.row[order].astype(np.int64),
            coo.col[order].astype(np.int64),
            coo.data[order],
        )

    @staticmethod
    def from_scipy(m) -> "SparseOperator":
        m = sp.coo_matrix(m)
        return SparseOperator.from_coo(m.shape[0], m.shape[1], m.row, m.col, m.data)

    @staticmethod
    def from_dense(a: np.ndarray) -> "SparseOperator":
        return SparseOperator.from_scipy(sp.coo_matrix(a))

    def entries(self) -> list[tuple[int, int, float]]:
        return [
            (int(r), int(c), float(v))
            for r, c, v in zip(self.rows, self.cols, self.vals)
        ]

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def tocsr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.nrows, self.ncols)
        )

    def to_dense(self) -> np.ndarray:
        return self.tocsr().toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.tocsr() @ x

    def dump_triplets(self, path) -> None:
        """Write one ``row col value`` line per entry for external inspection."""
        with open(path, "w") as fh:
            for r, c, v in zip(self.rows, self.cols, self.vals):
                fh.write(f"{int(r)} {int(c)} {float(v)!r}\n")


def as_csr(a) -> sp.csr_matrix:
    """CSR form of a :class:`SparseOperator`, a scipy sparse matrix or a dense array."""
    return a.tocsr() if isinstance(a, SparseOperator) else sp.csr_matrix(a)


def _ghost_sign(bc: str) -> float:
    # Antisymmetric reflection (PMC for tangential H) vs symmetric (PEC).
    return -1.0 if bc == PMC else 1.0


def staggered_derivative(
    n: int,
    delta: float,
    orientation: str,
    bc_lo: str = PMC,
    bc_hi: str | None = None,
) -> SparseOperator:
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
    return SparseOperator.from_coo(n, n, rows, cols, vals)


def _axis_factor(spec: GridSpec, axis: int, orientation: str) -> sp.csr_matrix:
    n = spec.shape[axis]
    delta = spec.spacing[axis]
    d = staggered_derivative(
        n,
        delta,
        orientation,
        spec.boundaries.face(axis, 0),
        spec.boundaries.face(axis, 1),
    )
    return d.tocsr()


def _place_axis(spec: GridSpec, axis: int, d: sp.csr_matrix) -> sp.csr_matrix:
    """Embed a 1D factor into the flattened grid (x fastest, z slowest)."""
    eye = [sp.identity(spec.nx, format="csr"),
           sp.identity(spec.ny, format="csr"),
           sp.identity(spec.nz, format="csr")]
    eye[axis] = d
    out = sp.kron(sp.kron(eye[2], eye[1]), eye[0], format="csr")
    return out


def _mask_structural_zeros(a: sp.csr_matrix, spec: GridSpec) -> sp.csr_matrix:
    """Zero the rows and columns of every inactive sample (pads, PEC-pinned, body interior)."""
    d = sp.diags(FieldLayout(spec).active_mask().astype(float))
    return (d @ a @ d).tocsr()


def assemble_generator_2d(spec: GridSpec) -> SparseOperator:
    """Generator for the transverse (E_z, H_x, H_y) system on the padded layout.

    Block structure over [E_z, H_x, H_y, pad]: the E_z row couples to the
    magnetic blocks through edge-to-node derivatives, the magnetic rows couple
    back through node-to-edge derivatives, and the pad row/column is zero.
    Scatterer modifications are applied when the spec carries a body.
    """
    if spec.dim != 2:
        raise GridError("assemble_generator_2d requires a 2D spec")
    inv_eps = 1.0 / spec.epsilon
    inv_mu = 1.0 / spec.mu
    dx_e2n = _axis_factor(spec, 0, EDGE_TO_NODE)
    dy_e2n = _axis_factor(spec, 1, EDGE_TO_NODE)
    dx_n2e = _axis_factor(spec, 0, NODE_TO_EDGE)
    dy_n2e = _axis_factor(spec, 1, NODE_TO_EDGE)

    n = spec.nx * spec.ny
    z = None
    blocks = [
        [z, -inv_eps * _place_axis(spec, 1, dy_e2n), inv_eps * _place_axis(spec, 0, dx_e2n), z],
        [-inv_mu * _place_axis(spec, 1, dy_n2e), z, z, z],
        [inv_mu * _place_axis(spec, 0, dx_n2e), z, z, z],
        [z, z, z, sp.csr_matrix((n, n))],
    ]
    a = sp.bmat(blocks, format="csr")
    a = _mask_structural_zeros(a, spec)
    op = SparseOperator.from_scipy(a)
    if spec.scatterer is not None and not spec.scatterer.is_empty:
        op = apply_scatterer(op, spec)
    return op


# Curl table: component -> [(source, derivative axis, sign)].
_CURL_3D = {
    Component.EX: [(Component.HZ, 1, +1.0), (Component.HY, 2, -1.0)],
    Component.EY: [(Component.HX, 2, +1.0), (Component.HZ, 0, -1.0)],
    Component.EZ: [(Component.HY, 0, +1.0), (Component.HX, 1, -1.0)],
    Component.HX: [(Component.EZ, 1, -1.0), (Component.EY, 2, +1.0)],
    Component.HY: [(Component.EX, 2, -1.0), (Component.EZ, 0, +1.0)],
    Component.HZ: [(Component.EY, 0, -1.0), (Component.EX, 1, +1.0)],
}


def assemble_generator_3d(spec: GridSpec) -> SparseOperator:
    """Full six-component curl generator on the padded 8N layout.

    Electric rows read magnetic blocks through edge-to-node factors (boundary
    ghosts applied per face), magnetic rows read electric blocks through
    node-to-edge factors; blocks 6 and 7 are zero pads.
    """
    if spec.dim != 3:
        raise GridError("assemble_generator_3d requires a 3D spec")
    layout = FieldLayout(spec)
    n = layout.block_size
    inv = {True: 1.0 / spec.epsilon, False: 1.0 / spec.mu}

    grid = [[None] * 8 for _ in range(8)]
    for comp, terms in _CURL_3D.items():
        is_e = comp in (Component.EX, Component.EY, Component.EZ)
        orientation = EDGE_TO_NODE if is_e else NODE_TO_EDGE
        r = layout.block_index(comp)
        for src, axis, sign in terms:
            c = layout.block_index(src)
            d = _axis_factor(spec, axis, orientation)
            grid[r][c] = sign * inv[is_e] * _place_axis(spec, axis, d)
    grid[6][6] = sp.csr_matrix((n, n))
    grid[7][7] = sp.csr_matrix((n, n))
    a = sp.bmat(grid, format="csr")
    a = _mask_structural_zeros(a, spec)
    return SparseOperator.from_scipy(a)


def assemble_generator(spec: GridSpec) -> SparseOperator:
    return assemble_generator_2d(spec) if spec.dim == 2 else assemble_generator_3d(spec)


def scatterer_frozen_indices(spec: GridSpec) -> np.ndarray:
    """Flat indices of samples strictly inside the scatterer box."""
    return np.flatnonzero(FieldLayout(spec).sample_classes().interior)


def _scatterer_wall_patches(spec: GridSpec) -> list[tuple[int, int, float]]:
    """Stencil increments closing E_z wall-node rows against the frozen interior.

    Only PMC body faces produce patches: the antisymmetric ghost maps the
    frozen interior magnetic sample onto minus its exterior mirror, doubling
    the surviving coefficient.  Corner nodes reference no interior sample and
    need no patch.
    """
    body = spec.scatterer
    layout = FieldLayout(spec)
    if body.faces != PMC:
        return []
    (lx, ly), (hx, hy) = body.lo, body.hi
    inv_eps = 1.0 / spec.epsilon
    patches = []
    for j in range(ly + 1, hy):
        # x-lo wall: dHy/dx at (lx, j) loses Hy(lx+1/2, j); ghost doubles Hy(lx-1/2, j).
        patches.append(
            (layout.flat_index(Component.EZ, lx, j),
             layout.flat_index(Component.HY, lx - 1, j),
             -inv_eps / spec.dx)
        )
        # x-hi wall: dHy/dx at (hx, j) loses Hy(hx-1/2, j); ghost doubles Hy(hx+1/2, j).
        patches.append(
            (layout.flat_index(Component.EZ, hx, j),
             layout.flat_index(Component.HY, hx, j),
             inv_eps / spec.dx)
        )
    for i in range(lx + 1, hx):
        # y-lo wall: -dHx/dy at (i, ly) loses Hx(i, ly+1/2); ghost doubles Hx(i, ly-1/2).
        patches.append(
            (layout.flat_index(Component.EZ, i, ly),
             layout.flat_index(Component.HX, i, ly - 1),
             inv_eps / spec.dy)
        )
        # y-hi wall: -dHx/dy at (i, hy) loses Hx(i, hy-1/2); ghost doubles Hx(i, hy+1/2).
        patches.append(
            (layout.flat_index(Component.EZ, i, hy),
             layout.flat_index(Component.HX, i, hy),
             -inv_eps / spec.dy)
        )
    return patches


def apply_scatterer(a: SparseOperator, spec: GridSpec) -> SparseOperator:
    """Freeze the body interior and re-close the adjacent exterior stencils.

    Rows and columns of inactive samples (the box interior and, for PEC
    faces, the outline ``E_z``) are zeroed, keeping the operator square and
    the state length unchanged; exterior wall-node stencils are modified
    with the same ghost rule as the outer boundary.
    """
    body = spec.scatterer
    if body is None:
        raise GridError("spec has no scatterer")
    if spec.dim != 2:
        raise GeometryError("internal scatterers are supported in 2D only")
    if body.is_empty:
        return a

    m = _mask_structural_zeros(a.tocsr(), spec)

    patches = _scatterer_wall_patches(spec)
    if patches:
        rows = [p[0] for p in patches]
        cols = [p[1] for p in patches]
        vals = [p[2] for p in patches]
        m = m + sp.coo_matrix((vals, (rows, cols)), shape=m.shape).tocsr()
    return SparseOperator.from_scipy(m)


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


def apply_weights(a: SparseOperator, weights: np.ndarray) -> SparseOperator:
    """Similarity transform ``D A D^-1`` for a positive diagonal ``weights``."""
    d = sp.diags(weights)
    dinv = sp.diags(1.0 / weights)
    return SparseOperator.from_scipy(d @ a.tocsr() @ dinv)


def skew_defect(a) -> float:
    """Relative Frobenius size of the symmetric part, ||A + A^T||_F / ||A||_F."""
    m = as_csr(a)
    num = sp.linalg.norm(m + m.T)
    den = sp.linalg.norm(m)
    return float(num / den) if den > 0 else 0.0
