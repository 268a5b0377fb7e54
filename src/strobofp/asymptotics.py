"""Closed-form reference laws for the frame-counted exit statistics.

Boundary and bulk large-rho laws for E[tau], the exact E[tau] of
exponential frame intervals, sine-mode survival sums, and the finite-window
effective exponent.  These are reference formulas: the banded
resolvent pipeline is the numerical ground truth they are compared against,
except `exponential_mean_tau`, which is exact and checks the pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientDataError

# Riemann zeta at 1/2; only this single value is needed, hard-coded rather
# than pulling in a zeta implementation.
ZETA_HALF = -1.46035450880958681

#: E[tau](rho; 0) ~ BOUNDARY_SLOPE * rho + BOUNDARY_CONST
BOUNDARY_SLOPE = 1.0 / math.sqrt(2.0)
BOUNDARY_CONST = abs(ZETA_HALF) / math.sqrt(math.pi)

#: E[tau](rho; 1/2) ~ BULK_A rho^2 + BULK_B rho + BULK_C  (M-form constant is BULK_C - 1)
BULK_A = 0.25
BULK_B = 0.583014
BULK_C = 0.573592

#: Reference gap correction: 1 - lambda0 ~ pi^2/(2 rho^2) + GAP_BETA / rho^3
GAP_BETA = 2.332056

#: Smallest mode term `mode_sum_survival` keeps; each n's mode cap follows from it
TRUNCATION_TOL = 1e-12


def boundary_law(rho: float) -> float:
    """E[tau] for a boundary start: rho/sqrt(2) + |zeta(1/2)|/sqrt(pi).

    Pure formula evaluation; meaningful as an asymptote for rho >~ 5.
    """
    return rho * BOUNDARY_SLOPE + BOUNDARY_CONST


def bulk_law(rho: float) -> float:
    """E[tau] for a centered start: rho^2/4 + 0.583014 rho + 0.573592."""
    return BULK_A * rho**2 + BULK_B * rho + BULK_C


def exponential_mean_tau(rho, y0):
    """Exact E[tau] for exponential frame intervals: 1 + rho/sqrt(2) + rho^2 y0 (1 - y0).

    Exponential intervals make each step Laplace with rate sqrt(2) in wall
    units X = rho y, so the overshoot past either wall is Exp(sqrt 2),
    memoryless, with mean 1/sqrt(2) and second moment 1.  Wald's identities
    for the unit-variance walk from X0 = rho y0, E[X_tau] = X0 and
    E[(X_tau - X0)^2] = E[tau], then give the law for every rho > 0 and y0
    in [0, 1], not only asymptotically.  Takes scalars or arrays.
    """
    return 1.0 + rho / math.sqrt(2.0) + rho**2 * y0 * (1.0 - y0)


def mode_sum_survival(rho: float, n, start: str = "boundary"):
    """Sine-mode survival sums for boundary or bulk starts, at one n or an array of n.

    boundary: 1/2 + (2/pi) sum_m exp[-pi^2 (2m+1)^2 n / (2 rho^2)]/(2m+1)
    bulk:     (2/pi) sum_m (-1)^m exp[-2 pi^2 (m+1)^2 n / rho^2]/(2m+2)

    Both are sum_m s_m exp(-pi^2 k^2 n / (2 rho^2))/k with k = 2m+1 or
    2m+2.  Each n keeps the modes up to its own cap, about
    rho sqrt(2 ln(1/tol)/n)/pi for the boundary series and half that for
    the bulk one, and among them the terms not below `TRUNCATION_TOL`; the
    bulk series alternates with decreasing terms, so the truncation error
    is below the first omitted term.  An array of n is summed mode by mode
    over the n whose cap reaches that mode, in O(len(n) + modes) memory and
    sum_n cap(n) term evaluations.  A scalar n gives a float, an array an
    array of its shape.  These are reference formulas with a limited
    validity window: they do not reproduce the true n -> infinity decay and
    are reported for comparison, never used as an oracle.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError(f"n must be >= 1, got {n.min()}")
    if start not in ("boundary", "bulk"):
        raise ValueError(f"start must be 'boundary' or 'bulk', got {start!r}")
    boundary = start == "boundary"
    log_tol = math.log(1.0 / TRUNCATION_TOL)
    # sorted by n, the caps descend: the n that mode m reaches are a prefix
    order = np.argsort(n, axis=None)
    flat = n.ravel()[order].astype(float)
    cap_sq = 2.0 * log_tol if boundary else 0.5 * log_tol
    caps = (rho * np.sqrt(cap_sq / flat) / math.pi).astype(np.int64) + 2
    x = flat / rho**2
    sums = np.zeros(flat.size)
    for m in range(int(caps.max(initial=-1)) + 1):
        active = int(np.searchsorted(-caps, -m, side="right"))
        k = 2 * m + 1 if boundary else 2 * m + 2
        terms = np.exp(-0.5 * math.pi**2 * k**2 * x[:active]) / k
        terms[terms < TRUNCATION_TOL] = 0.0
        if boundary or m % 2 == 0:
            sums[:active] += terms
        else:
            sums[:active] -= terms
    values = np.empty(flat.size)
    values[order] = (0.5 if boundary else 0.0) + (2.0 / math.pi) * sums
    values = values.reshape(n.shape)
    return float(values) if values.ndim == 0 else values


def loglog_window_points(rho_lo: float, rho_hi: float, n_points: int = 20) -> np.ndarray:
    """Sample points uniform in log rho, the sampling used for exponent fits."""
    pts = np.exp(np.linspace(math.log(rho_lo), math.log(rho_hi), n_points))
    pts[0], pts[-1] = rho_lo, rho_hi  # pin endpoints against float drift
    return pts


def effective_exponent(values, window) -> float:
    """Least-squares slope of log E[tau] vs log rho inside the window.

    `values` is a sequence of (rho, etau) pairs; at least 5 must fall inside
    the inclusive window.
    """
    rho_lo, rho_hi = window
    data = np.asarray(list(values), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("values must be (rho, etau) pairs")
    if np.any(data <= 0.0):
        raise ValueError("rho and E[tau] values must be positive")
    mask = (data[:, 0] >= rho_lo) & (data[:, 0] <= rho_hi)
    if mask.sum() < 5:
        raise InsufficientDataError(
            f"need at least 5 points inside [{rho_lo}, {rho_hi}], have {mask.sum()}"
        )
    slope = np.polyfit(np.log(data[mask, 0]), np.log(data[mask, 1]), 1)[0]
    return float(slope)
