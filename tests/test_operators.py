import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from qmaxwell.errors import GeometryError, GridError
from qmaxwell.grid import (
    Boundaries,
    Component,
    FieldLayout,
    GridSpec,
    ScattererBox,
    pack_initial_condition,
)
from qmaxwell.operators import (
    EDGE_TO_NODE,
    NODE_TO_EDGE,
    apply_weights,
    as_csr,
    assemble_generator,
    scatterer_frozen_indices,
    skew_defect,
    staggered_derivative,
    symmetrizing_weights,
)
from qmaxwell.scenarios import SCENARIO_NAMES, build_scenario

from stencil_oracle import apply_curl_2d, apply_curl_3d


class TestAsCsr:
    def test_dedup_and_zero_drop(self):
        raw = sp.csr_matrix(([2.0, 1.0, 0.0], [1, 1, 0], [0, 2, 3]), shape=(2, 2))
        op = as_csr(raw)
        assert isinstance(op, sp.csr_matrix) and op.has_canonical_format
        assert (op.indptr.tolist(), op.indices.tolist(), op.data.tolist()) == ([0, 1, 1], [1], [3.0])
        assert raw.nnz == 3  # the input is copied, not canonicalized in place

    def test_round_trip_dense(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5)) * (rng.random((5, 5)) > 0.5)
        op = as_csr(a)
        assert np.array_equal(op.toarray(), a)


class TestStaggeredDerivative:
    def test_size_error(self):
        with pytest.raises(GridError):
            staggered_derivative(1, 1.0, NODE_TO_EDGE)

    def test_constant_in_kernel_interior(self):
        # Derivative of a constant vanishes on interior rows of both kinds.
        for orientation in (NODE_TO_EDGE, EDGE_TO_NODE):
            d = staggered_derivative(8, 0.5, orientation).toarray()
            interior = d[1:-1] @ np.ones(8)
            assert np.allclose(interior, 0.0)

    def test_node_to_edge_ramp(self):
        # Unit ramp on nodes differentiates to one on every edge sample.
        d = staggered_derivative(4, 1.0, NODE_TO_EDGE).toarray()
        out = d @ np.arange(4.0)
        assert np.allclose(out[:3], 1.0)
        assert out[3] == 0.0  # pad row

    def test_edge_to_node_interior_row(self):
        d = staggered_derivative(4, 1.0, EDGE_TO_NODE).toarray()
        e = np.array([0.0, 1.0, 2.0, 0.0])
        assert d[1] @ e == 1.0
        assert d[2] @ e == 1.0

    def test_pmc_boundary_doubles_coefficient(self):
        d = staggered_derivative(4, 0.5, EDGE_TO_NODE, bc_lo="pmc", bc_hi="pmc")
        dense = d.toarray()
        assert dense[0, 0] == 2.0 / 0.5
        assert dense[-1, -2] == -2.0 / 0.5

    def test_pec_boundary_zeroes_row(self):
        dense = staggered_derivative(4, 1.0, EDGE_TO_NODE, bc_lo="pec", bc_hi="pec").toarray()
        assert not dense[0].any()
        assert not dense[-1].any()

    def test_pad_column_untouched(self):
        for orientation in (NODE_TO_EDGE, EDGE_TO_NODE):
            dense = staggered_derivative(8, 1.0, orientation).toarray()
            if orientation == EDGE_TO_NODE:
                assert not dense[:, -1].any()
            else:
                assert not dense[-1, :].any()


def _random_state(spec, rng):
    return rng.standard_normal(FieldLayout(spec).state_len)


class TestGenerator2D:
    def test_uniform_ez_is_static(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator(spec)
        layout = FieldLayout(spec)
        u = np.zeros(layout.state_len)
        u[: layout.block_size] = 1.0
        assert np.allclose(a @ u, 0.0)

    def test_block_sparsity_structure(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        dense = assemble_generator(spec).toarray()
        n = 16
        assert not dense.diagonal().any()

        def block(r, c):
            return dense[r * n : (r + 1) * n, c * n : (c + 1) * n]

        # Couplings only between E_z and the magnetic blocks.
        assert block(0, 1).any() and block(0, 2).any()
        assert block(1, 0).any() and block(2, 0).any()
        for r, c in [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]:
            assert not block(r, c).any()
        assert not dense[3 * n :, :].any() and not dense[:, 3 * n :].any()

    @pytest.mark.parametrize("n", [4, 8])
    def test_matches_stencil_oracle_empty(self, n):
        spec = GridSpec(nx=n, ny=n, dim=2)
        a = assemble_generator(spec)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a @ u - apply_curl_2d(spec, u))) < 1e-12

    def test_matches_stencil_oracle_pec_faces(self):
        spec = GridSpec(
            nx=8, ny=8, dim=2, boundaries=Boundaries(xlo="pec", yhi="pec")
        )
        a = assemble_generator(spec)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a @ u - apply_curl_2d(spec, u))) < 1e-12

    def test_matches_stencil_oracle_anisotropic(self):
        spec = GridSpec(nx=4, ny=8, dim=2, dx=0.5, dy=0.25, epsilon=2.0, mu=0.5)
        a = assemble_generator(spec)
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a @ u - apply_curl_2d(spec, u))) < 1e-12

    def test_skew_defect_recorded(self):
        # The doubled ghost coefficients break exact skew symmetry at walls.
        spec = GridSpec(nx=8, ny=8, dim=2)
        defect = skew_defect(assemble_generator(spec))
        assert defect > 1e-3


class TestGenerator3D:
    def test_pad_blocks_zero(self):
        spec = GridSpec(nx=2, ny=2, nz=2, dim=3)
        dense = assemble_generator(spec).toarray()
        assert dense.shape == (64, 64)
        assert not dense[48:, :].any()
        assert not dense[:, 48:].any()

    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 4, 4)])
    def test_matches_stencil_oracle(self, shape):
        spec = GridSpec(nx=shape[0], ny=shape[1], nz=shape[2], dim=3)
        a = assemble_generator(spec)
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a @ u - apply_curl_3d(spec, u))) < 1e-12

    def test_matches_stencil_oracle_mixed_faces(self):
        spec = GridSpec(
            nx=4, ny=4, nz=4, dim=3,
            boundaries=Boundaries(zlo="pec", zhi="pec"),
        )
        a = assemble_generator(spec)
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a @ u - apply_curl_3d(spec, u))) < 1e-12

    def test_transpose_comparison_measured(self):
        defect = skew_defect(assemble_generator(GridSpec(nx=4, ny=4, nz=4, dim=3)))
        assert defect >= 0.0  # value feeds the lift tests; recorded, not assumed


# Bodies for the stencil checks and the byte pin: centred, off-centre and
# non-square, one cell wide on one axis (touching i = 1 or j = 1), on square
# and non-square grids with mixed outer faces, anisotropic spacings and
# non-unit materials.  Each is built with PMC and with PEC walls.
_BODIES = {
    "centred-8x8": dict(nx=8, ny=8, box=((2, 2), (6, 6))),
    "offcentre-16x8": dict(
        nx=16, ny=8, box=((3, 1), (11, 4)), boundaries=Boundaries("pec", "pmc", "pmc", "pec")
    ),
    "thin-x-8x16": dict(
        nx=8, ny=16, box=((1, 5), (2, 12)), boundaries=Boundaries("pmc", "pec", "pec", "pmc")
    ),
    "anisotropic-16x16": dict(
        nx=16, ny=16, box=((5, 3), (12, 7)), dx=0.7, dy=1.3, epsilon=3.0, mu=0.5,
        boundaries=Boundaries("pmc", "pec", "pmc", "pec"),
    ),
    "thin-y-32x16": dict(
        nx=32, ny=16, box=((20, 9), (29, 10)), dx=1.3, dy=0.7, epsilon=2.5, mu=1.7,
        boundaries=Boundaries("pec", "pec", "pec", "pec"),
    ),
}


def _body_spec(name: str, faces: str) -> GridSpec:
    kw = dict(_BODIES[name])
    lo, hi = kw.pop("box")
    return GridSpec(dim=2, scatterer=ScattererBox(lo, hi, faces=faces), **kw)


class TestScatterer:
    def scatter_spec(self, n=16, lo=(4, 4), hi=(12, 12)):
        return GridSpec(nx=n, ny=n, dim=2, scatterer=ScattererBox(lo=lo, hi=hi))

    def test_empty_body_rejected(self):
        # A point and a PEC plate enclose no sample, and a PMC box one cell
        # wide on both axes acts on none; they are refused, not ignored.
        cases = (((3, 3), (3, 3), "pec"), ((4, 4), (4, 12), "pec"), ((4, 4), (5, 5), "pmc"))
        for lo, hi, faces in cases:
            with pytest.raises(GeometryError):
                GridSpec(nx=16, ny=16, dim=2, scatterer=ScattererBox(lo, hi, faces=faces))

    def test_zeroed_row_count(self):
        spec = self.scatter_spec()
        frozen = scatterer_frozen_indices(spec)
        # Independent count from the sample positions: interior nodes are
        # 7x7 for E_z and 7x8 for each half-offset magnetic component.
        assert len(frozen) == 7 * 7 + 7 * 8 + 8 * 7
        dense = assemble_generator(spec).toarray()
        assert not dense[frozen, :].any()
        assert not dense[:, frozen].any()

    @pytest.mark.parametrize("body", _BODIES)
    def test_matches_stencil_oracle(self, body):
        spec = _body_spec(body, "pmc")
        a = assemble_generator(spec)
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a @ u - apply_curl_2d(spec, u))) < 1e-12

    @pytest.mark.parametrize("body", _BODIES)
    def test_matches_stencil_oracle_pec_body(self, body):
        spec = _body_spec(body, "pec")
        a = assemble_generator(spec)
        rng = np.random.default_rng(14)
        for _ in range(10):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a @ u - apply_curl_2d(spec, u))) < 1e-12

    def test_pmc_wall_doubles_coefficient_exactly(self):
        # A PMC body wall closes as an outer PMC wall does: the surviving
        # coefficient is twice the interior one, to the bit, whatever the
        # material and spacings.  Body x-lo/y-lo walls face the field as an
        # outer x-hi/y-hi wall does, and the other way round.
        spec = GridSpec(
            nx=8, ny=8, dim=2, epsilon=1.7, dx=1.9, dy=0.45, scatterer=ScattererBox((2, 2), (5, 5))
        )
        layout = FieldLayout(spec)
        a = assemble_generator(spec)

        def coef(row, col):
            return a[layout.flat_index(Component.EZ, *row), layout.flat_index(*col)]

        hx, hy = Component.HX, Component.HY
        assert coef((2, 3), (hy, 1, 3)) == -2 * coef((1, 3), (hy, 1, 3)) == coef((7, 3), (hy, 6, 3))
        assert coef((5, 3), (hy, 5, 3)) == 2 * coef((1, 3), (hy, 1, 3)) == coef((0, 3), (hy, 0, 3))
        assert coef((3, 2), (hx, 3, 1)) == -2 * coef((3, 1), (hx, 3, 1)) == coef((3, 7), (hx, 3, 6))
        assert coef((3, 5), (hx, 3, 5)) == 2 * coef((3, 1), (hx, 3, 1)) == coef((3, 0), (hx, 3, 0))

    def test_interior_is_fixed_point_of_flow(self):
        from scipy.linalg import expm

        spec = self.scatter_spec()
        a = assemble_generator(spec)
        u0 = pack_initial_condition(spec, [(Component.EZ, 4, 4, 0, 1.0)])
        flow = expm(a.toarray() * 2.5)
        ut = flow @ u0.values
        frozen = scatterer_frozen_indices(spec)
        assert np.max(np.abs(ut[frozen])) == 0.0


def _face_mix_specs():
    for faces in itertools.product(("pmc", "pec"), repeat=4):
        for body in (None, "pmc", "pec"):
            box = None if body is None else ScattererBox((4, 4), (12, 12), faces=body)
            yield pytest.param(
                GridSpec(nx=16, ny=16, dim=2, boundaries=Boundaries(*faces), scatterer=box),
                id=f"2d-{'-'.join(faces)}-body-{body}",
            )
    for faces in itertools.product(("pmc", "pec"), repeat=6):
        yield pytest.param(
            GridSpec(nx=4, ny=4, nz=4, dim=3, boundaries=Boundaries(*faces)),
            id=f"3d-{'-'.join(faces)}",
        )


@pytest.mark.parametrize("spec", list(_face_mix_specs()))
def test_active_mask_matches_generator_coupling(spec):
    """Inactive samples are decoupled, and no active E sample is.

    Normal H on a PEC wall is a legitimate static mode (empty row and
    column while active), so only E components are held to the converse.
    """
    layout = FieldLayout(spec)
    m = assemble_generator(spec).tocsr()
    has_row = np.diff(m.indptr) > 0
    has_col = np.bincount(m.indices, minlength=m.shape[1]) > 0
    active = layout.active_mask()
    assert not has_row[~active].any()
    assert not has_col[~active].any()
    is_e = np.zeros(layout.state_len, dtype=bool)
    for comp in layout.components:
        if comp in (Component.EX, Component.EY, Component.EZ):
            layout.component_values(is_e, comp)[...] = True
    assert not (active & is_e & ~has_row & ~has_col).any()


@pytest.mark.parametrize("spec", list(_face_mix_specs()))
def test_weights_match_per_sample_loop(spec):
    """Bit-identical to a product of 1/sqrt(2) per PMC face, one sample at a time."""
    layout = FieldLayout(spec)
    expected = np.ones(layout.state_len)
    for comp in layout.components:
        stag = spec.staggered_axes(comp)
        for k, j, i in itertools.product(range(spec.nz), range(spec.ny), range(spec.nx)):
            f = 1.0
            for ax, idx in enumerate((i, j, k)[: spec.dim]):
                if ax in stag:
                    continue
                if idx == 0 and spec.boundaries.face(ax, 0) == "pmc":
                    f *= 1.0 / math.sqrt(2.0)
                if idx == spec.shape[ax] - 1 and spec.boundaries.face(ax, 1) == "pmc":
                    f *= 1.0 / math.sqrt(2.0)
            expected[layout.flat_index(comp, i, j, k)] = f
    assert symmetrizing_weights(spec).tobytes() == expected.tobytes()


def test_skew_defect_accepts_any_matrix_form():
    a = assemble_generator(
        GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox((2, 2), (6, 6)))
    )
    expected = skew_defect(a)
    assert expected > 0
    assert skew_defect(a.tocsr()) == expected
    assert skew_defect(a.toarray()) == expected


@pytest.mark.parametrize("spec", list(_face_mix_specs()))
def test_generator_is_canonical(spec):
    """Raw and weighted generators are canonical CSR: sorted, no duplicates, no stored zeros."""
    a = assemble_generator(spec)
    for m in (a, apply_weights(a, symmetrizing_weights(spec))):
        assert isinstance(m, sp.csr_matrix) and m.has_canonical_format
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        assert (np.diff(rows * m.shape[1] + m.indices) > 0).all()
        assert (m.data != 0).all()


def _csr_digest(m) -> str:
    h = hashlib.sha256()
    for arr in (m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data):
        h.update(arr.tobytes())
    return h.hexdigest()


# sha256 of each scenario's generator CSR arrays, raw and weighted: a change
# to any assembled value, or to the order it is stored in, fails the test.
_GENERATOR_DIGESTS = {
    "2d-empty": (
        "359a6e7b687371e5cb8331817d2eeb486527c2331bb9631d66eb05ee77e60be0",
        "5e02aa80829d8945ccf69b61f3953aa3b51feea5ea73a623b9e979fb030b141b",
    ),
    "2d-scatterer": (
        "82b6c73d1369a9aa78f0371f60a97c9cf84192e9eb1b8b078d51d7b2e072efa1",
        "6147c3e585e5a9fbd25a3ac3ee4acddaaf0768164f13358b150ac296dbeec167",
    ),
    "3d-empty": (
        "2b78a5222bdfc7ebdb7ae480ef8f8147a16da15709543d91e29d85d78c85d897",
        "e04e3a58044ebc4978ecec55e3496e04d79bece8ce40bae51f4ccb363f1dc98b",
    ),
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_generator_arrays_pinned(name):
    spec = build_scenario(name).spec
    a = assemble_generator(spec)
    weighted = apply_weights(a, symmetrizing_weights(spec))
    assert (_csr_digest(a), _csr_digest(weighted)) == _GENERATOR_DIGESTS[name]


def test_body_sweep_arrays_pinned():
    """sha256 over the raw and weighted generator arrays of every body, PMC and PEC walls alike."""
    h = hashlib.sha256()
    for name in _BODIES:
        for faces in ("pmc", "pec"):
            spec = _body_spec(name, faces)
            a = assemble_generator(spec)
            for m in (a, apply_weights(a, symmetrizing_weights(spec))):
                h.update(_csr_digest(m).encode())
    assert h.hexdigest() == "d2bda47eeceb2fed7ac887194b835d62212fb4a5dbba23f1f826f1eb3a2b8f5b"


@pytest.mark.parametrize(
    "args",
    [(4, 1.0, "diagonal"), (4, 1.0, NODE_TO_EDGE, "foo"), (4, 1.0, EDGE_TO_NODE, "pmc", "foo")],
    ids=["orientation", "bc-lo", "bc-hi"],
)
def test_staggered_derivative_refusals(args):
    with pytest.raises(GridError):
        staggered_derivative(*args)
