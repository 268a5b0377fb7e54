"""Survival statistics of interval-confined Brownian motion under frame-based
(kill-on-check) monitoring: deterministic banded-operator pipeline, closed-form
reference laws, Monte Carlo oracle, and the regression harness tying them
together."""

from .asymptotics import (
    BOUNDARY_CONST,
    BOUNDARY_SLOPE,
    BULK_A,
    BULK_B,
    BULK_C,
    GAP_BETA,
    ZETA_HALF,
    boundary_law,
    bulk_law,
    effective_exponent,
    exponential_mean_tau,
    loglog_window_points,
    mode_sum_survival,
)
from .errors import (
    ConvergenceError,
    FitError,
    InsufficientDataError,
    ResolutionError,
    SolverError,
)
from .fitting import REFERENCE_FITS, FitResult, fit_boundary, fit_bulk, fit_gap
from .montecarlo import (
    MCResult,
    SelfAveragingReport,
    self_averaging_check,
    simulate_tau,
    write_histogram_csv,
)
from .operator_core import (
    DEFAULT_CUTOFF_ETA,
    FrameDistribution,
    ProblemSpec,
    StroboOperator,
    build_averaged_operator,
    build_operator,
    default_grid_size,
)
from .resolvent import (
    ExitStats,
    SurvivalSeries,
    exit_stats,
    initial_vector,
    leading_eigenvalue,
    mean_frames,
    neumann_partial_sum,
    spectral_pair,
    survival_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_CONST",
    "BOUNDARY_SLOPE",
    "BULK_A",
    "BULK_B",
    "BULK_C",
    "ConvergenceError",
    "DEFAULT_CUTOFF_ETA",
    "ExitStats",
    "FitError",
    "FitResult",
    "FrameDistribution",
    "GAP_BETA",
    "InsufficientDataError",
    "MCResult",
    "ProblemSpec",
    "REFERENCE_FITS",
    "ResolutionError",
    "SelfAveragingReport",
    "SolverError",
    "StroboOperator",
    "SurvivalSeries",
    "ZETA_HALF",
    "boundary_law",
    "build_averaged_operator",
    "build_operator",
    "bulk_law",
    "default_grid_size",
    "effective_exponent",
    "exit_stats",
    "exponential_mean_tau",
    "fit_boundary",
    "fit_bulk",
    "fit_gap",
    "initial_vector",
    "leading_eigenvalue",
    "loglog_window_points",
    "mean_frames",
    "mode_sum_survival",
    "neumann_partial_sum",
    "self_averaging_check",
    "simulate_tau",
    "spectral_pair",
    "survival_sequence",
    "write_histogram_csv",
]
