"""Benchmark scenario definitions shared by the CLI and the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .grid import Component, GridSpec, ScattererBox

SCENARIO_NAMES = ("2d-empty", "2d-scatterer", "3d-empty")


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


def build_scenario(name: str, nx=None, ny=None, nz=None) -> Scenario:
    if name == "2d-empty":
        base = scenario_2d_empty(nx or 32, ny or (nx or 32))
    elif name == "2d-scatterer":
        base = scenario_2d_scatterer(nx or 16, ny or (nx or 16))
    elif name == "3d-empty":
        base = scenario_3d_empty(nx or 16, ny or (nx or 16), nz or (nx or 16))
    else:
        raise ConfigError(f"unknown scenario {name!r}; pick from {SCENARIO_NAMES}")
    return base
