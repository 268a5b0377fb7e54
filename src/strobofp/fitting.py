"""Least-squares harness for the sweep regressions.

`MODELS` holds the three regressions, one row each: boundary
M = A rho + B + C/rho, bulk M = a rho^2 + b rho + c, and the gap law fitted
as gap * rho^2 = intercept + beta / rho.  A row's curve is linear in the
coefficients, so the design's columns are the curve at each unit
coefficient vector.  Solved with an SVD least squares (numerically stable
orthogonalization); coefficient standard errors come from the residual
covariance.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import BULK_A, BULK_B, BULK_C, GAP_BETA
from .errors import FitError, InsufficientDataError


@dataclass(frozen=True)
class Model:
    """One sweep regression: the value fitted at rho is curve(c, rho)."""

    names: tuple  # the coefficients c, in order
    curve: Callable  # curve(c, rho), linear in c
    n_min: int  # fewest points the fit accepts
    rho_min: float  # smallest rho the fit accepts
    sweep: tuple  # default lo, hi, step of `fit` and `figures`
    value: Callable = lambda rho, y: y  # the value fitted, from a data point
    derived: Callable = lambda c: {}  # numbers derived from the coefficients


MODELS = {
    "boundary": Model(("A", "B", "C"), lambda c, r: c[0] * r + c[1] + c[2] / r,
                      5, 10.0, (20.0, 200.0, 10.0)),
    "bulk": Model(("a", "b", "c"), lambda c, r: c[0] * r * r + c[1] * r + c[2],
                  6, 10.0, (20.0, 200.0, 10.0),
                  derived=lambda c: {"beta": float(4.0 * c[1]), "C": float(c[2] + 1.0)}),
    "gap": Model(("intercept", "beta"), lambda c, r: c[0] + c[1] / r,
                 4, 20.0, (20.0, 120.0, 10.0), value=lambda rho, gap: gap * rho**2),
}

#: Reproduction targets for reporting (reference sweep values).
REFERENCE_FITS = {
    "boundary": {"A": 0.70726, "B": -0.17609},
    "bulk": {"a": BULK_A, "b": BULK_B, "c": BULK_C - 1.0, "C": BULK_C},
    "gap": {"intercept": math.pi**2 / 2.0, "beta": GAP_BETA},
}

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
    derived: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def check_window(model: str, rhos) -> None:
    """Refuse sweep points `rhos` too few or too low for `model`'s regression."""
    spec = MODELS[model]
    if len(rhos) < spec.n_min:
        raise InsufficientDataError(
            f"{model} fit needs at least {spec.n_min} points, got {len(rhos)}"
        )
    if np.any(np.asarray(rhos) < spec.rho_min):
        raise ValueError(f"{model} fit requires all rho >= {spec.rho_min}")


def _fit(model: str, data) -> FitResult:
    """OLS of `model`'s value on its design, the curve at each unit coefficient
    vector, for `data` a sequence of (rho, value) pairs."""
    spec = MODELS[model]
    arr = np.asarray(list(data), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("data must be a sequence of (rho, value) pairs")
    rho = arr[:, 0]
    check_window(model, rho)
    names = spec.names
    design = np.column_stack([spec.curve(unit, rho) for unit in np.eye(len(names))])
    y = spec.value(rho, arr[:, 1])
    n, p = design.shape
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p:
        raise FitError(
            f"{model} design is rank deficient (rank {rank} < {p}); "
            "distinct rho values are required"
        )
    sd = design.std(axis=0)
    for i in range(p):
        for j in range(i + 1, p):
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
        window=(float(rho.min()), float(rho.max())),
        n_points=n,
        derived=spec.derived(coef),
    )


def fit_boundary(data) -> FitResult:
    """OLS of boundary-start M on {rho, 1, 1/rho}; coefficients A, B, C."""
    return _fit("boundary", data)


def fit_bulk(data) -> FitResult:
    """OLS of bulk-start M on {rho^2, rho, 1}; reports derived beta = 4b, C = c + 1."""
    return _fit("bulk", data)


def fit_gap(data) -> FitResult:
    """OLS of gap * rho^2 on {1, 1/rho}; intercept targets pi^2/2, slope is beta."""
    return _fit("gap", data)
