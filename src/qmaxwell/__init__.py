"""Quantum-circuit time-domain Maxwell solver on staggered grids.

Pipeline: staggered-grid curl generator -> Hermitian split and warped-phase
lift -> tensor-string blocks -> first-order product circuits -> exact
statevector simulation -> sign-resolved probe readout, all validated against
a classical matrix-exponential oracle.
"""

__version__ = "0.1.0"

from . import bell, circuit, grid, lifting, measure, operators, oracle, scenarios, trotter
from .grid import Boundaries, Component, FieldLayout, FieldState, GridSpec, ScattererBox
from .lifting import HermitianPair, PRegister

__all__ = [
    "__version__",
    "Boundaries",
    "Component",
    "FieldLayout",
    "FieldState",
    "GridSpec",
    "HermitianPair",
    "PRegister",
    "ScattererBox",
    "bell",
    "circuit",
    "grid",
    "lifting",
    "measure",
    "operators",
    "oracle",
    "scenarios",
    "trotter",
]
