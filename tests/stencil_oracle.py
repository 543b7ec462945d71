"""Loop-based stencil evaluation of the semi-discrete curl equations.

Independent reference for the assembled generator: plain nested loops over
samples with explicit ghost handling, no Kronecker products and no sparse
matrices.  Index arithmetic is written out locally on purpose.
"""

import numpy as np

from qmaxwell.grid import Component, GridSpec

_E2D, _HX2D, _HY2D = 0, 1, 2


def _flat2d(spec, block, i, j):
    return block * spec.nx * spec.ny + j * spec.nx + i


def _ghost(bc):
    return -1.0 if bc == "pmc" else 1.0


def _frozen_ez_2d(spec, i, j):
    """E_z samples pinned to zero (PEC outer walls, PEC body outline, body interior)."""
    b = spec.boundaries
    if (i == 0 and b.xlo == "pec") or (i == spec.nx - 1 and b.xhi == "pec"):
        return True
    if (j == 0 and b.ylo == "pec") or (j == spec.ny - 1 and b.yhi == "pec"):
        return True
    body = spec.scatterer
    if body is not None:
        (lx, ly), (hx, hy) = body.lo, body.hi
        if lx < i < hx and ly < j < hy:
            return True
        if body.faces == "pec" and lx <= i <= hx and ly <= j <= hy:
            on_outline = i in (lx, hx) or j in (ly, hy)
            if on_outline:
                return True
    return False


def _inside_body(spec, x, y):
    body = spec.scatterer
    if body is None:
        return False
    return body.lo[0] < x < body.hi[0] and body.lo[1] < y < body.hi[1]


def apply_curl_2d(spec: GridSpec, u: np.ndarray) -> np.ndarray:
    """du/dt for the stacked (E_z, H_x, H_y, pad) state, one sample at a time."""
    nx, ny = spec.nx, spec.ny
    dx, dy = spec.dx, spec.dy
    body = spec.scatterer

    def read_ez(i, j):
        if _frozen_ez_2d(spec, i, j):
            return 0.0
        return u[_flat2d(spec, _E2D, i, j)]

    def read_hx(i, sj):
        # Stored H_x sample at (i, sj + 1/2); pads and frozen interior read as zero.
        if sj == ny - 1:
            return 0.0
        if _inside_body(spec, i, sj + 0.5):
            return 0.0
        return u[_flat2d(spec, _HX2D, i, sj)]

    def read_hy(si, j):
        if si == nx - 1:
            return 0.0
        if _inside_body(spec, si + 0.5, j):
            return 0.0
        return u[_flat2d(spec, _HY2D, si, j)]

    def sample_hy(si, j, node):
        # Value at location (si + 1/2, j) as read by E_z at (node, j), with ghost
        # reflection where needed.  A body sample is reflected across the wall
        # the reading node sits on: a body one cell wide has one interior
        # sample between two walls, and each wall mirrors it onto its own side.
        if si < 0:
            return _ghost(spec.boundaries.xlo) * read_hy(0, j)
        if si > nx - 2:
            return _ghost(spec.boundaries.xhi) * read_hy(nx - 2, j)
        if body is not None and _inside_body(spec, si + 0.5, j):
            g = _ghost(body.faces)
            if node == body.lo[0]:
                return g * read_hy(body.lo[0] - 1, j)
            if node == body.hi[0]:
                return g * read_hy(body.hi[0], j)
            return 0.0
        return read_hy(si, j)

    def sample_hx(i, sj, node):
        if sj < 0:
            return _ghost(spec.boundaries.ylo) * read_hx(i, 0)
        if sj > ny - 2:
            return _ghost(spec.boundaries.yhi) * read_hx(i, ny - 2)
        if body is not None and _inside_body(spec, i, sj + 0.5):
            g = _ghost(body.faces)
            if node == body.lo[1]:
                return g * read_hx(i, body.lo[1] - 1)
            if node == body.hi[1]:
                return g * read_hx(i, body.hi[1])
            return 0.0
        return read_hx(i, sj)

    out = np.zeros_like(u)
    for j in range(ny):
        for i in range(nx):
            if not _frozen_ez_2d(spec, i, j):
                dhy_dx = (sample_hy(i, j, i) - sample_hy(i - 1, j, i)) / dx
                dhx_dy = (sample_hx(i, j, j) - sample_hx(i, j - 1, j)) / dy
                out[_flat2d(spec, _E2D, i, j)] = (dhy_dx - dhx_dy) / spec.epsilon
    for sj in range(ny - 1):
        for i in range(nx):
            if _inside_body(spec, i, sj + 0.5):
                continue
            dez_dy = (read_ez(i, sj + 1) - read_ez(i, sj)) / dy
            out[_flat2d(spec, _HX2D, i, sj)] = -dez_dy / spec.mu
    for j in range(ny):
        for si in range(nx - 1):
            if _inside_body(spec, si + 0.5, j):
                continue
            dez_dx = (read_ez(si + 1, j) - read_ez(si, j)) / dx
            out[_flat2d(spec, _HY2D, si, j)] = dez_dx / spec.mu
    return out


# 3D: component -> (staggered axes, [(source, axis, sign), ...])
_BLOCKS_3D = {
    Component.EX: ((0,), [(Component.HZ, 1, +1.0), (Component.HY, 2, -1.0)]),
    Component.EY: ((1,), [(Component.HX, 2, +1.0), (Component.HZ, 0, -1.0)]),
    Component.EZ: ((2,), [(Component.HY, 0, +1.0), (Component.HX, 1, -1.0)]),
    Component.HX: ((1, 2), [(Component.EZ, 1, -1.0), (Component.EY, 2, +1.0)]),
    Component.HY: ((0, 2), [(Component.EX, 2, -1.0), (Component.EZ, 0, +1.0)]),
    Component.HZ: ((0, 1), [(Component.EY, 0, -1.0), (Component.EX, 1, +1.0)]),
}
_ORDER_3D = (
    Component.EX,
    Component.EY,
    Component.EZ,
    Component.HX,
    Component.HY,
    Component.HZ,
)


def _frozen_e_3d(spec, comp, idx):
    """Tangential E on a PEC outer face is pinned to zero."""
    axis_of = {Component.EX: 0, Component.EY: 1, Component.EZ: 2}
    if comp not in axis_of:
        return False
    n = (spec.nx, spec.ny, spec.nz)
    for axis in range(3):
        if axis == axis_of[comp]:
            continue
        if idx[axis] == 0 and spec.boundaries.face(axis, 0) == "pec":
            return True
        if idx[axis] == n[axis] - 1 and spec.boundaries.face(axis, 1) == "pec":
            return True
    return False


def apply_curl_3d(spec: GridSpec, u: np.ndarray) -> np.ndarray:
    n = (spec.nx, spec.ny, spec.nz)
    deltas = (spec.dx, spec.dy, spec.dz)
    nblock = spec.nx * spec.ny * spec.nz

    def flat(comp, idx):
        b = _ORDER_3D.index(comp)
        return b * nblock + (idx[2] * spec.ny + idx[1]) * spec.nx + idx[0]

    def read(comp, idx):
        stag = _BLOCKS_3D[comp][0]
        if any(idx[a] == n[a] - 1 for a in stag):
            return 0.0
        if _frozen_e_3d(spec, comp, idx):
            return 0.0
        return u[flat(comp, idx)]

    def sample_h(comp, idx, axis):
        # Stored magnetic sample with half offset along `axis`; reflect at walls.
        if idx[axis] < 0:
            mirrored = list(idx)
            mirrored[axis] = 0
            return _ghost(spec.boundaries.face(axis, 0)) * read(comp, tuple(mirrored))
        if idx[axis] > n[axis] - 2:
            mirrored = list(idx)
            mirrored[axis] = n[axis] - 2
            return _ghost(spec.boundaries.face(axis, 1)) * read(comp, tuple(mirrored))
        return read(comp, idx)

    out = np.zeros_like(u)
    e_comps = (Component.EX, Component.EY, Component.EZ)
    for comp in _ORDER_3D:
        stag, terms = _BLOCKS_3D[comp]
        is_e = comp in e_comps
        coef = 1.0 / (spec.epsilon if is_e else spec.mu)
        for k in range(n[2]):
            for j in range(n[1]):
                for i in range(n[0]):
                    idx = (i, j, k)
                    if any(idx[a] == n[a] - 1 for a in stag):
                        continue
                    if is_e and _frozen_e_3d(spec, comp, idx):
                        continue
                    acc = 0.0
                    for src, axis, sign in terms:
                        if is_e:
                            hi = idx
                            lo = list(idx)
                            lo[axis] -= 1
                            d = sample_h(src, hi, axis) - sample_h(src, tuple(lo), axis)
                        else:
                            hi = list(idx)
                            hi[axis] += 1
                            d = read(src, tuple(hi)) - read(src, idx)
                        acc += sign * d / deltas[axis]
                    out[flat(comp, idx)] = coef * acc
    return out
