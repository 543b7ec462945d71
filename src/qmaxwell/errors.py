"""Exception types shared across the package."""


class QmaxwellError(Exception):
    """Base class for all package errors."""


class GridError(QmaxwellError, ValueError):
    """Invalid grid specification, index, or size."""


class PlacementError(GridError):
    """Initial-condition impulse placed at an invalid location."""


class GeometryError(GridError):
    """Unsupported geometry (e.g. scatterer touching the outer boundary)."""


class HermiticityError(QmaxwellError, ValueError):
    """Operator or term list violates a required Hermiticity structure."""


class RecoveryInfeasibleError(QmaxwellError, RuntimeError):
    """No auxiliary-grid point lies above the spectral bound required for recovery.

    Carries the required lower bound so callers can report the needed range.
    """

    def __init__(self, message: str, required_p: float = 0.0):
        super().__init__(message)
        self.required_p = required_p


class ConfigError(QmaxwellError, ValueError):
    """Invalid run configuration (CLI exit code 2)."""
