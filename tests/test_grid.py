import itertools

import numpy as np
import pytest

from qmaxwell.errors import GeometryError, GridError, PlacementError
from qmaxwell.grid import (
    Boundaries,
    Component,
    FieldLayout,
    FieldState,
    GridSpec,
    ScattererBox,
    pack_initial_condition,
    qubit_count,
)

from helpers import is_pad, unpack_impulses


def spec2d(n=4, **kw):
    return GridSpec(nx=n, ny=n, dim=2, **kw)


def spec3d(n=2, **kw):
    return GridSpec(nx=n, ny=n, nz=n, dim=3, **kw)


class TestGridSpec:
    def test_power_of_two_required(self):
        with pytest.raises(GridError):
            GridSpec(nx=3, ny=4, dim=2)
        with pytest.raises(GridError):
            GridSpec(nx=4, ny=4, nz=6, dim=3)

    def test_nz_forced_in_2d(self):
        with pytest.raises(GridError):
            GridSpec(nx=4, ny=4, nz=2, dim=2)

    def test_positive_material_constants(self):
        with pytest.raises(GridError):
            spec2d(epsilon=0.0)

    def test_scatterer_must_be_interior(self):
        with pytest.raises(GeometryError):
            spec2d(n=8, scatterer=ScattererBox(lo=(0, 2), hi=(4, 5)))
        with pytest.raises(GeometryError):
            spec2d(n=8, scatterer=ScattererBox(lo=(2, 2), hi=(7, 5)))

    def test_scatterer_3d_unsupported(self):
        with pytest.raises(GeometryError):
            GridSpec(nx=4, ny=4, nz=4, dim=3, scatterer=ScattererBox((1, 1), (2, 2)))

    def test_boundary_names_checked(self):
        with pytest.raises(GridError):
            Boundaries(xlo="absorbing")


class TestFlatIndex:
    def test_first_entry_of_first_block(self):
        layout = FieldLayout(spec2d(4))
        assert layout.flat_index(Component.EZ, 0, 0) == 0

    def test_hand_computed_2d(self):
        # Block order [E_z, H_x, H_y]: H_x block starts at 16 on a 4x4 grid.
        layout = FieldLayout(spec2d(4))
        assert layout.flat_index(Component.HX, 2, 1) == 16 + 1 * 4 + 2

    def test_hand_computed_3d(self):
        layout = FieldLayout(spec3d(2))
        assert layout.flat_index(Component.HZ, 1, 1, 1) == 5 * 8 + 7

    def test_out_of_range(self):
        layout = FieldLayout(spec2d(4))
        with pytest.raises(GridError):
            layout.flat_index(Component.EZ, 4, 0)
        with pytest.raises(GridError):
            layout.flat_index(Component.EZ, 0, -1)

    def test_component_not_in_mode(self):
        layout = FieldLayout(spec2d(4))
        with pytest.raises(GridError):
            layout.flat_index(Component.EX, 0, 0)

    def test_bijection_over_stored_samples(self):
        for spec in (spec2d(4), spec3d(2)):
            layout = FieldLayout(spec)
            seen = set()
            for comp in layout.components:
                for k in range(spec.nz):
                    for j in range(spec.ny):
                        for i in range(spec.nx):
                            seen.add(layout.flat_index(comp, i, j, k))
            n_comp = len(layout.components)
            assert seen == set(range(n_comp * layout.block_size))


class TestPads:
    def test_pad_slots_2d(self):
        layout = FieldLayout(spec2d(4))
        assert is_pad(layout, Component.HX, 0, 3)
        assert not is_pad(layout, Component.HX, 3, 2)
        assert is_pad(layout, Component.HY, 3, 0)
        assert not is_pad(layout, Component.EZ, 3, 3)

    def test_pad_slots_3d(self):
        layout = FieldLayout(spec3d(2))
        # H_x is half-offset along y and z.
        assert is_pad(layout, Component.HX, 0, 1, 0)
        assert is_pad(layout, Component.HX, 0, 0, 1)
        assert not is_pad(layout, Component.HX, 1, 0, 0)

    def test_state_length(self):
        assert FieldLayout(spec2d(4)).state_len == 4 * 16
        assert FieldLayout(spec3d(2)).state_len == 8 * 8


class TestQubitCount:
    def test_paper_scenarios(self):
        assert qubit_count(GridSpec(nx=32, ny=32, dim=2)) == 12
        assert qubit_count(GridSpec(nx=16, ny=16, dim=2)) == 10
        assert qubit_count(GridSpec(nx=16, ny=16, nz=16, dim=3)) == 15

    def test_matches_padded_length(self):
        for spec in (spec2d(4), spec2d(8), spec3d(2), spec3d(4)):
            assert 1 << qubit_count(spec) == FieldLayout(spec).state_len


class TestPack:
    def test_single_impulse(self):
        spec = GridSpec(nx=32, ny=32, dim=2)
        state = pack_initial_condition(spec, [(Component.EZ, 16, 16, 0, 1.0)])
        assert np.count_nonzero(state.values) == 1
        assert state.at(Component.EZ, 16, 16) == 1.0

    def test_empty_impulse_list(self):
        state = pack_initial_condition(spec2d(4), [])
        assert not state.values.any()

    def test_scatterer_scenario_placement(self):
        spec = GridSpec(
            nx=16, ny=16, dim=2, scatterer=ScattererBox(lo=(4, 4), hi=(12, 12))
        )
        state = pack_initial_condition(spec, [(Component.EZ, 4, 4, 0, 1.0)])
        assert state.at(Component.EZ, 4, 4) == 1.0
        with pytest.raises(PlacementError):
            pack_initial_condition(spec, [(Component.EZ, 8, 8, 0, 1.0)])

    def test_pad_slot_rejected(self):
        with pytest.raises(PlacementError):
            pack_initial_condition(spec2d(4), [(Component.HX, 0, 3, 0, 1.0)])

    def test_pec_wall_rejected(self):
        spec = spec2d(4, boundaries=Boundaries(xlo="pec"))
        with pytest.raises(PlacementError):
            pack_initial_condition(spec, [(Component.EZ, 0, 2, 0, 1.0)])

    def test_pec_body_outline_rejected(self):
        # The generator pins E_z on a PEC body outline, so an impulse there
        # would never move; it is refused like one on a PEC outer wall.
        spec = GridSpec(
            nx=16, ny=16, dim=2, scatterer=ScattererBox((4, 4), (12, 12), faces="pec")
        )
        with pytest.raises(PlacementError, match="PEC wall"):
            pack_initial_condition(spec, [(Component.EZ, 4, 8, 0, 1.0)])
        state = pack_initial_condition(spec, [(Component.EZ, 3, 8, 0, 1.0)])
        assert state.at(Component.EZ, 3, 8) == 1.0

    def test_round_trip(self):
        spec = spec2d(8)
        impulses = [
            (Component.EZ, 3, 4, 0, 1.5),
            (Component.HX, 2, 1, 0, -0.25),
            (Component.HY, 6, 7, 0, 2.0),
        ]
        state = pack_initial_condition(spec, impulses)
        key = lambda imp: (imp[0].value, imp[1:])
        assert sorted(unpack_impulses(state), key=key) == sorted(impulses, key=key)


class TestActiveMask:
    def test_counts_2d_empty(self):
        spec = spec2d(4)
        mask = FieldLayout(spec).active_mask()
        # E_z fully active; H_x and H_y each lose one padded line.
        assert mask.sum() == 16 + 12 + 12

    def test_scatterer_interior_excluded(self):
        spec = GridSpec(
            nx=16, ny=16, dim=2, scatterer=ScattererBox(lo=(4, 4), hi=(12, 12))
        )
        layout = FieldLayout(spec)
        assert not layout.is_active(Component.EZ, 8, 8)
        assert layout.is_active(Component.EZ, 4, 8)  # on the wall
        assert not layout.is_active(Component.HX, 8, 7)  # (8, 7.5) inside
        assert layout.is_active(Component.HX, 4, 7)  # (4, 7.5) on the x wall

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(nx=8, ny=4, dim=2, boundaries=Boundaries(xlo="pec", yhi="pec")),
            GridSpec(nx=16, ny=8, dim=2, scatterer=ScattererBox((4, 2), (12, 6), faces="pec")),
            GridSpec(nx=4, ny=2, nz=4, dim=3, boundaries=Boundaries(ylo="pec", zhi="pec")),
        ],
        ids=["2d-pec-walls", "2d-pec-body", "3d-pec-walls"],
    )
    def test_scalar_queries_match_whole_state_mask(self, spec):
        layout = FieldLayout(spec)
        mask = layout.active_mask()
        pads = layout.sample_classes().pad
        for comp in layout.components:
            for k, j, i in itertools.product(range(spec.nz), range(spec.ny), range(spec.nx)):
                flat = layout.flat_index(comp, i, j, k)
                assert layout.is_active(comp, i, j, k) == mask[flat]
                assert is_pad(layout, comp, i, j, k) == pads[flat]
        assert not mask[len(layout.components) * layout.block_size :].any()


# Axes (0=x, 1=y, 2=z) along which each 3D component sits at half-integer offsets.
_STAGGER_3D = {
    Component.EX: (0,),
    Component.EY: (1,),
    Component.EZ: (2,),
    Component.HX: (1, 2),
    Component.HY: (0, 2),
    Component.HZ: (0, 1),
}


@pytest.mark.parametrize("comp", list(Component), ids=str)
@pytest.mark.parametrize("dim", [2, 3])
def test_staggered_axes_are_3d_axes_below_dim(dim, comp):
    """A 2D grid is one z sample thick: it keeps the 3D stagger axes below 2 and refuses E_x, E_y, H_z."""
    spec = spec2d() if dim == 2 else spec3d()
    if comp in spec.components:
        assert spec.staggered_axes(comp) == tuple(ax for ax in _STAGGER_3D[comp] if ax < dim)
    else:
        with pytest.raises(GridError, match="not present in 2D"):
            spec.staggered_axes(comp)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: GridSpec(nx=4, ny=4, dim=4), GridError),
        (lambda: spec2d(dx=0.0), GridError),
        (lambda: ScattererBox((1, 1), (3, 3), faces="foo"), GridError),
        (lambda: ScattererBox((1, 1, 0), (3, 3)), GridError),
        (lambda: pack_initial_condition(spec2d(), [(Component.EZ, 1, 1, 1, 1.0)]), PlacementError),
        (lambda: FieldState(np.zeros(3), FieldLayout(spec2d())), GridError),
    ],
    ids=["dim-4", "dx-0", "box-faces", "box-corner", "impulse-k-in-2d", "state-length"],
)
def test_typed_refusals(build, error):
    with pytest.raises(error):
        build()
