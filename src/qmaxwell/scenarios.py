"""Benchmark scenario definitions shared by the CLI and the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .grid import Component, GridSpec, ScattererBox


@dataclass(frozen=True)
class Scenario:
    """Grid, excitation, and default run parameters for one benchmark."""

    name: str
    spec: GridSpec
    impulses: tuple
    dt: float
    steps: int
    snapshot_times: tuple

    @property
    def horizon(self) -> float:
        return self.dt * self.steps

    @property
    def center(self) -> tuple[int, int, int]:
        i, j, k = self.impulses[0][1:4]
        return (i, j, k)


def scenario_2d_empty(nx: int = 32, ny: int = 32) -> Scenario:
    """Empty cavity, magnetic-wall edges, unit impulse at the center node."""
    spec = GridSpec(nx=nx, ny=ny, dim=2)
    return Scenario(
        name="2d-empty",
        spec=spec,
        impulses=((Component.EZ, nx // 2, ny // 2, 0, 1.0),),
        dt=0.01,
        steps=2400,
        snapshot_times=(0.0, 8.0, 16.0, 24.0),
    )


def scenario_2d_scatterer(nx: int = 16, ny: int = 16) -> Scenario:
    """Centered square body of half the domain size; impulse in the empty quadrant."""
    body = ScattererBox(lo=(nx // 4, ny // 4), hi=(3 * nx // 4, 3 * ny // 4))
    spec = GridSpec(nx=nx, ny=ny, dim=2, scatterer=body)
    return Scenario(
        name="2d-scatterer",
        spec=spec,
        impulses=((Component.EZ, nx // 4, ny // 4, 0, 1.0),),
        dt=0.1,
        steps=150,
        snapshot_times=(0.0, 5.0, 10.0, 15.0),
    )


def scenario_3d_empty(nx: int = 16, ny: int = 16, nz: int = 16) -> Scenario:
    """Empty cavity, magnetic walls on all six faces, unit ``E_z`` point impulse at the center.

    The point impulse radiates a spherical wave, so this is not the
    z-extrusion of ``2d-empty``: a 2D impulse is an infinite line source
    and radiates a cylindrical one.  A 3D problem that reduces exactly to
    2D needs an ``E_z`` line source on every active ``k`` and PEC z faces.
    """
    spec = GridSpec(nx=nx, ny=ny, nz=nz, dim=3)
    return Scenario(
        name="3d-empty",
        spec=spec,
        impulses=((Component.EZ, nx // 2, ny // 2, nz // 2, 1.0),),
        dt=0.1,
        steps=100,
        snapshot_times=(5.0, 10.0),
    )


# name -> (builder, default nx)
_BUILDERS = {
    "2d-empty": (scenario_2d_empty, 32),
    "2d-scatterer": (scenario_2d_scatterer, 16),
    "3d-empty": (scenario_3d_empty, 16),
}
SCENARIO_NAMES = tuple(_BUILDERS)


def build_scenario(name: str, nx=None, ny=None, nz=None) -> Scenario:
    """The named scenario; a size left as ``None`` takes its default.

    ``ny`` and ``nz`` default to ``nx``.  A 2D scenario has one z sample, so
    any other ``nz`` is a ``ConfigError``; sizes the grid rejects raise
    ``GridError``.
    """
    if name not in _BUILDERS:
        raise ConfigError(f"unknown scenario {name!r}; pick from {SCENARIO_NAMES}")
    build, default_nx = _BUILDERS[name]
    nx = default_nx if nx is None else nx
    ny = nx if ny is None else ny
    if name == "3d-empty":
        return build(nx, ny, nx if nz is None else nz)
    if nz not in (None, 1):
        raise ConfigError(f"scenario {name!r} is 2D, so nz must be 1, not {nz}")
    return build(nx, ny)
