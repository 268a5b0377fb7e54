"""Exception types shared across the package."""


class ResolutionError(ValueError):
    """Grid too coarse to resolve the kernel core (bandwidth < 4 grid steps)."""


class SolverError(RuntimeError):
    """(I - K) could not be factorized or the solve residual is out of tolerance."""


class ConvergenceError(RuntimeError):
    """Inverse iteration missed the eigen-residual bound within its step cap."""


class FitError(ValueError):
    """Rank-deficient regression design (e.g. duplicate abscissae only)."""


class InsufficientDataError(ValueError):
    """Fewer data points than the fit or exponent window requires."""
