"""Exception types shared across the package."""


class ResolutionError(ValueError):
    """Grid too coarse to resolve the kernel core (bandwidth < 4 grid steps)."""


class SolverError(RuntimeError):
    """(I - K) is not positive definite, the solve residual is out of tolerance,
    or the leading eigenvalue lies outside (0, 1)."""


class ConvergenceError(RuntimeError):
    """PCG or Davidson missed its residual bound within its step cap."""


class FitError(ValueError):
    """Rank-deficient regression design (e.g. duplicate abscissae only)."""


class InsufficientDataError(ValueError):
    """Fewer data points than the fit or exponent window requires."""
