"""Exception and warning types shared across the package."""


class QPolarError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QPolarError, ValueError):
    """Inputs have incompatible or invalid dimensions (e.g. odd phase-space dim)."""


class NotSymmetricError(QPolarError, ValueError):
    """A matrix required to be symmetric deviates beyond tolerance."""


class NotPositiveDefiniteError(QPolarError, ValueError):
    """A matrix required to be symmetric positive definite is not."""


class SingularMatrixError(QPolarError, ValueError):
    """A matrix required to be invertible is singular to working precision."""


class DegenerateBodyError(QPolarError, ValueError):
    """A convex body (or point set) is degenerate: not full-dimensional or empty."""


class ConvergenceError(QPolarError, RuntimeError):
    """An iterative procedure hit its cap or left residuals beyond tolerance."""


class UndecidedError(QPolarError, RuntimeError):
    """A verdict cannot be decided exactly (e.g. vertex enumeration beyond its budget)."""


class GridError(QPolarError, ValueError):
    """A sample grid violates the transform preconditions (uniform, power-of-two)."""


class InvalidCovarianceError(QPolarError, ValueError):
    """A covariance matrix fails the quantum validity precondition."""


class BoundaryDecayWarning(UserWarning):
    """Grid samples do not decay to the required level at the grid edges."""


class HardyInconsistencyWarning(UserWarning):
    """Envelope bounds verified numerically in a regime the uncertainty bound forbids."""
