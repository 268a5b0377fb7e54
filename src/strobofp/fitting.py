"""Least-squares harness for the sweep regressions.

Three fixed designs: boundary M = A rho + B + C/rho, bulk M = a rho^2 +
b rho + c, and the gap law fitted as gap * rho^2 = intercept + beta / rho.
Solved with an SVD least squares (numerically stable orthogonalization);
coefficient standard errors come from the residual covariance.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, InsufficientDataError

#: Reproduction targets for reporting (reference sweep values).
REFERENCE_FITS = {
    "boundary": {"A": 0.70726, "B": -0.17609},
    "bulk": {"a": 0.250000, "b": 0.583014, "c": -0.426408, "C": 0.573592},
    "gap": {"intercept": math.pi**2 / 2.0, "beta": 2.332056},
}

# Fewest points and smallest rho each regression accepts.
_WINDOWS = {"boundary": (5, 10.0), "bulk": (6, 10.0), "gap": (4, 20.0)}

_CORRELATION_WARN = 0.9999


@dataclass(frozen=True)
class FitResult:
    """Named coefficients with residual diagnostics for one regression."""

    model: str
    coefficients: dict
    stderrs: dict
    rms_residual: float
    window: tuple
    n_points: int
    derived: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "coefficients": dict(self.coefficients),
            "stderrs": dict(self.stderrs),
            "rms_residual": self.rms_residual,
            "window": list(self.window),
            "n_points": self.n_points,
            "derived": dict(self.derived),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _as_pairs(data) -> np.ndarray:
    arr = np.asarray(list(data), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("data must be a sequence of (rho, value) pairs")
    return arr


def check_window(model: str, rhos) -> None:
    """Refuse sweep points `rhos` too few or too low for `model`'s regression."""
    n_min, rho_min = _WINDOWS[model]
    if len(rhos) < n_min:
        raise InsufficientDataError(
            f"{model} fit needs at least {n_min} points, got {len(rhos)}"
        )
    if np.any(np.asarray(rhos) < rho_min):
        raise ValueError(f"{model} fit requires all rho >= {rho_min}")


def _ols(design: np.ndarray, y: np.ndarray, names, model: str, window, derived=None):
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise FitError(
            f"{model} design is rank deficient (rank {rank} < {design.shape[1]}); "
            "distinct rho values are required"
        )
    sd = design.std(axis=0)
    for i in range(design.shape[1]):
        for j in range(i + 1, design.shape[1]):
            if sd[i] == 0.0 or sd[j] == 0.0:
                continue
            corr = abs(np.corrcoef(design[:, i], design[:, j])[0, 1])
            if corr > _CORRELATION_WARN:
                warnings.warn(
                    f"{model} basis columns {names[i]} and {names[j]} correlate "
                    f"at {corr:.6f}; coefficients are poorly separated",
                    stacklevel=3,
                )
    residual = y - design @ coef
    n, p = design.shape
    rms = float(np.sqrt(np.mean(residual**2)))
    if n > p:
        sigma2 = float(residual @ residual) / (n - p)
        cov = sigma2 * np.linalg.inv(design.T @ design)
        errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    else:
        errs = np.full(p, np.nan)
    return FitResult(
        model=model,
        coefficients={k: float(v) for k, v in zip(names, coef)},
        stderrs={k: float(v) for k, v in zip(names, errs)},
        rms_residual=rms,
        window=window,
        n_points=n,
        derived=derived(coef) if derived else {},
    )


def fit_boundary(data) -> FitResult:
    """OLS of boundary-start M on {rho, 1, 1/rho}; coefficients A, B, C."""
    arr = _as_pairs(data)
    check_window("boundary", arr[:, 0])
    rho = arr[:, 0]
    design = np.column_stack([rho, np.ones_like(rho), 1.0 / rho])
    return _ols(
        design, arr[:, 1], ("A", "B", "C"), "boundary",
        (float(rho.min()), float(rho.max())),
    )


def fit_bulk(data) -> FitResult:
    """OLS of bulk-start M on {rho^2, rho, 1}; reports derived beta = 4b, C = c + 1."""
    arr = _as_pairs(data)
    check_window("bulk", arr[:, 0])
    rho = arr[:, 0]
    design = np.column_stack([rho**2, rho, np.ones_like(rho)])
    return _ols(
        design, arr[:, 1], ("a", "b", "c"), "bulk",
        (float(rho.min()), float(rho.max())),
        derived=lambda c: {"beta": float(4.0 * c[1]), "C": float(c[2] + 1.0)},
    )


def fit_gap(data) -> FitResult:
    """OLS of gap * rho^2 on {1, 1/rho}; intercept targets pi^2/2, slope is beta."""
    arr = _as_pairs(data)
    check_window("gap", arr[:, 0])
    rho = arr[:, 0]
    design = np.column_stack([np.ones_like(rho), 1.0 / rho])
    return _ols(
        design, arr[:, 1] * rho**2, ("intercept", "beta"), "gap",
        (float(rho.min()), float(rho.max())),
    )
