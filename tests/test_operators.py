import itertools
import math

import numpy as np
import pytest

from qmaxwell.errors import GridError
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
    SparseOperator,
    apply_scatterer,
    assemble_generator,
    assemble_generator_2d,
    assemble_generator_3d,
    scatterer_frozen_indices,
    skew_defect,
    staggered_derivative,
    symmetrizing_weights,
)

from stencil_oracle import apply_curl_2d, apply_curl_3d


class TestSparseOperator:
    def test_dedup_and_zero_drop(self):
        op = SparseOperator.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 0.0])
        assert op.entries() == [(0, 1, 3.0)]

    def test_round_trip_dense(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5)) * (rng.random((5, 5)) > 0.5)
        op = SparseOperator.from_dense(a)
        assert np.array_equal(op.to_dense(), a)

    def test_dump_triplets(self, tmp_path):
        op = SparseOperator.from_coo(2, 2, [0, 1], [1, 0], [1.5, -2.0])
        path = tmp_path / "a.txt"
        op.dump_triplets(path)
        lines = path.read_text().splitlines()
        assert lines == ["0 1 1.5", "1 0 -2.0"]


class TestStaggeredDerivative:
    def test_size_error(self):
        with pytest.raises(GridError):
            staggered_derivative(1, 1.0, NODE_TO_EDGE)

    def test_constant_in_kernel_interior(self):
        # Derivative of a constant vanishes on interior rows of both kinds.
        for orientation in (NODE_TO_EDGE, EDGE_TO_NODE):
            d = staggered_derivative(8, 0.5, orientation).to_dense()
            interior = d[1:-1] @ np.ones(8)
            assert np.allclose(interior, 0.0)

    def test_node_to_edge_ramp(self):
        # Unit ramp on nodes differentiates to one on every edge sample.
        d = staggered_derivative(4, 1.0, NODE_TO_EDGE).to_dense()
        out = d @ np.arange(4.0)
        assert np.allclose(out[:3], 1.0)
        assert out[3] == 0.0  # pad row

    def test_edge_to_node_interior_row(self):
        d = staggered_derivative(4, 1.0, EDGE_TO_NODE).to_dense()
        e = np.array([0.0, 1.0, 2.0, 0.0])
        assert d[1] @ e == 1.0
        assert d[2] @ e == 1.0

    def test_pmc_boundary_doubles_coefficient(self):
        d = staggered_derivative(4, 0.5, EDGE_TO_NODE, bc_lo="pmc", bc_hi="pmc")
        dense = d.to_dense()
        assert dense[0, 0] == 2.0 / 0.5
        assert dense[-1, -2] == -2.0 / 0.5

    def test_pec_boundary_zeroes_row(self):
        dense = staggered_derivative(4, 1.0, EDGE_TO_NODE, bc_lo="pec", bc_hi="pec").to_dense()
        assert not dense[0].any()
        assert not dense[-1].any()

    def test_pad_column_untouched(self):
        for orientation in (NODE_TO_EDGE, EDGE_TO_NODE):
            dense = staggered_derivative(8, 1.0, orientation).to_dense()
            if orientation == EDGE_TO_NODE:
                assert not dense[:, -1].any()
            else:
                assert not dense[-1, :].any()


def _random_state(spec, rng):
    return rng.standard_normal(FieldLayout(spec).state_len)


class TestGenerator2D:
    def test_wrong_dim(self):
        with pytest.raises(GridError):
            assemble_generator_2d(GridSpec(nx=4, ny=4, nz=4, dim=3))

    def test_uniform_ez_is_static(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        a = assemble_generator_2d(spec)
        layout = FieldLayout(spec)
        u = np.zeros(layout.state_len)
        u[: layout.block_size] = 1.0
        assert np.allclose(a.matvec(u), 0.0)

    def test_block_sparsity_structure(self):
        spec = GridSpec(nx=4, ny=4, dim=2)
        dense = assemble_generator_2d(spec).to_dense()
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
        a = assemble_generator_2d(spec)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a.matvec(u) - apply_curl_2d(spec, u))) < 1e-12

    def test_matches_stencil_oracle_pec_faces(self):
        spec = GridSpec(
            nx=8, ny=8, dim=2, boundaries=Boundaries(xlo="pec", yhi="pec")
        )
        a = assemble_generator_2d(spec)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a.matvec(u) - apply_curl_2d(spec, u))) < 1e-12

    def test_matches_stencil_oracle_anisotropic(self):
        spec = GridSpec(nx=4, ny=8, dim=2, dx=0.5, dy=0.25, epsilon=2.0, mu=0.5)
        a = assemble_generator_2d(spec)
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a.matvec(u) - apply_curl_2d(spec, u))) < 1e-12

    def test_skew_defect_recorded(self):
        # The doubled ghost coefficients break exact skew symmetry at walls.
        spec = GridSpec(nx=8, ny=8, dim=2)
        defect = skew_defect(assemble_generator_2d(spec))
        assert defect > 1e-3


class TestGenerator3D:
    def test_pad_blocks_zero(self):
        spec = GridSpec(nx=2, ny=2, nz=2, dim=3)
        dense = assemble_generator_3d(spec).to_dense()
        assert dense.shape == (64, 64)
        assert not dense[48:, :].any()
        assert not dense[:, 48:].any()

    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 4, 4)])
    def test_matches_stencil_oracle(self, shape):
        spec = GridSpec(nx=shape[0], ny=shape[1], nz=shape[2], dim=3)
        a = assemble_generator_3d(spec)
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a.matvec(u) - apply_curl_3d(spec, u))) < 1e-12

    def test_matches_stencil_oracle_mixed_faces(self):
        spec = GridSpec(
            nx=4, ny=4, nz=4, dim=3,
            boundaries=Boundaries(zlo="pec", zhi="pec"),
        )
        a = assemble_generator_3d(spec)
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a.matvec(u) - apply_curl_3d(spec, u))) < 1e-12

    def test_transpose_comparison_measured(self):
        defect = skew_defect(assemble_generator_3d(GridSpec(nx=4, ny=4, nz=4, dim=3)))
        assert defect >= 0.0  # value feeds the lift tests; recorded, not assumed


class TestScatterer:
    def scatter_spec(self, n=16, lo=(4, 4), hi=(12, 12)):
        return GridSpec(nx=n, ny=n, dim=2, scatterer=ScattererBox(lo=lo, hi=hi))

    def test_empty_body_is_noop(self):
        base = GridSpec(nx=8, ny=8, dim=2)
        a = assemble_generator_2d(base)
        spec = GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox((3, 3), (3, 3)))
        b = apply_scatterer(a, spec)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_zeroed_row_count(self):
        spec = self.scatter_spec()
        frozen = scatterer_frozen_indices(spec)
        # Independent count from the sample positions: interior nodes are
        # 7x7 for E_z and 7x8 for each half-offset magnetic component.
        assert len(frozen) == 7 * 7 + 7 * 8 + 8 * 7
        dense = assemble_generator_2d(spec).to_dense()
        assert not dense[frozen, :].any()
        assert not dense[:, frozen].any()

    def test_matches_stencil_oracle(self):
        spec = GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox((2, 2), (6, 6)))
        a = assemble_generator_2d(spec)
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a.matvec(u) - apply_curl_2d(spec, u))) < 1e-12

    def test_matches_stencil_oracle_pec_body(self):
        spec = GridSpec(
            nx=8, ny=8, dim=2, scatterer=ScattererBox((2, 2), (6, 6), faces="pec")
        )
        a = assemble_generator_2d(spec)
        rng = np.random.default_rng(14)
        for _ in range(10):
            u = _random_state(spec, rng)
            assert np.max(np.abs(a.matvec(u) - apply_curl_2d(spec, u))) < 1e-12

    def test_interior_is_fixed_point_of_flow(self):
        from scipy.linalg import expm

        spec = self.scatter_spec()
        a = assemble_generator_2d(spec)
        u0 = pack_initial_condition(spec, [(Component.EZ, 4, 4, 0, 1.0)])
        flow = expm(a.to_dense() * 2.5)
        ut = flow @ u0.values
        frozen = scatterer_frozen_indices(spec)
        assert np.max(np.abs(ut[frozen])) == 0.0

    def test_apply_without_scatterer_errors(self):
        base = GridSpec(nx=8, ny=8, dim=2)
        a = assemble_generator_2d(base)
        with pytest.raises(GridError):
            apply_scatterer(a, base)


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
    a = assemble_generator_2d(
        GridSpec(nx=8, ny=8, dim=2, scatterer=ScattererBox((2, 2), (6, 6)))
    )
    expected = skew_defect(a)
    assert expected > 0
    assert skew_defect(a.tocsr()) == expected
    assert skew_defect(a.to_dense()) == expected
