"""Regression harness: exact recovery, diagnostics, serialization."""

import math

import numpy as np
import pytest

from strobofp import (
    FitError,
    InsufficientDataError,
    fit_boundary,
    fit_bulk,
    fit_gap,
)
from strobofp.fitting import MODELS

RHOS = np.arange(20.0, 201.0, 10.0)


class TestExactRecovery:
    def test_boundary(self):
        data = [(r, 0.7 * r - 0.2 + 0.3 / r) for r in RHOS]
        fit = fit_boundary(data)
        assert fit.coefficients["A"] == pytest.approx(0.7, abs=1e-10)
        assert fit.coefficients["B"] == pytest.approx(-0.2, abs=1e-10)
        assert fit.coefficients["C"] == pytest.approx(0.3, abs=1e-8)
        assert fit.rms_residual < 1e-9

    def test_bulk(self):
        data = [(r, 0.25 * r**2 + 0.58 * r - 0.43) for r in RHOS]
        fit = fit_bulk(data)
        assert fit.coefficients["a"] == pytest.approx(0.25, abs=1e-10)
        assert fit.coefficients["b"] == pytest.approx(0.58, abs=1e-9)
        assert fit.coefficients["c"] == pytest.approx(-0.43, abs=1e-8)
        assert fit.derived["beta"] == pytest.approx(4 * 0.58, abs=1e-8)
        assert fit.derived["C"] == pytest.approx(0.57, abs=1e-8)
        assert fit.rms_residual < 1e-9

    def test_gap(self):
        half_pi2 = math.pi**2 / 2.0
        data = [(r, half_pi2 / r**2 + 2.332 / r**3) for r in np.arange(20.0, 121.0, 10.0)]
        fit = fit_gap(data)
        assert fit.coefficients["intercept"] == pytest.approx(half_pi2, abs=1e-9)
        assert fit.coefficients["beta"] == pytest.approx(2.332, abs=1e-9)


class TestInvariances:
    def test_permutation_invariance(self):
        data = [(r, 0.7 * r - 0.2 + 0.3 / r + 1e-3 * math.sin(r)) for r in RHOS]
        fit1 = fit_boundary(data)
        fit2 = fit_boundary(list(reversed(data)))
        for key in fit1.coefficients:
            assert fit1.coefficients[key] == pytest.approx(
                fit2.coefficients[key], rel=1e-10
            )

    def test_window_and_counts_recorded(self):
        data = [(r, 0.25 * r**2 + r) for r in RHOS]
        fit = fit_bulk(data)
        assert fit.window == (20.0, 200.0)
        assert fit.n_points == RHOS.size

    def test_synthetic_window_stability(self):
        # perturb the exact model with a smooth higher-order term; fitted
        # coefficients stay within the reproduction tolerances on half windows
        data = [(r, 0.25 * r**2 + 0.583 * r - 0.43 + 0.5 / r) for r in RHOS]
        whole = fit_bulk(data)
        left = fit_bulk([d for d in data if d[0] <= 110.0])
        right = fit_bulk([d for d in data if d[0] >= 110.0])
        for sub in (left, right):
            assert abs(sub.coefficients["a"] - whole.coefficients["a"]) < 1e-3
            assert abs(sub.coefficients["b"] - whole.coefficients["b"]) < 5e-3
            assert abs(sub.coefficients["c"] - whole.coefficients["c"]) < 2e-2


class TestDiagnostics:
    def test_rank_deficient_design(self):
        data = [(15.0, 10.0)] * 6
        with pytest.raises(FitError):
            fit_boundary(data)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_window_leaves_residual_degrees_of_freedom(self, model):
        # every fit the window admits has more points than coefficients, so
        # the residual covariance, and every standard error, is defined
        assert MODELS[model].n_min > len(MODELS[model].names)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_boundary([(20.0, 14.0), (30.0, 21.0)])
        with pytest.raises(InsufficientDataError):
            fit_bulk([(r, r**2) for r in (20.0, 30.0, 40.0, 50.0, 60.0)])
        with pytest.raises(InsufficientDataError):
            fit_gap([(r, 1e-3) for r in (20.0, 30.0, 40.0)])

    @pytest.mark.parametrize("data", [[(20.0, 1.0, 2.0)] * 6, [20.0, 30.0, 40.0, 50.0, 60.0]])
    @pytest.mark.parametrize("fit", [fit_boundary, fit_bulk, fit_gap])
    def test_malformed_pairs(self, fit, data):
        with pytest.raises(ValueError, match=r"sequence of \(rho, value\) pairs"):
            fit(data)

    def test_rho_floor_enforced(self):
        with pytest.raises(ValueError):
            fit_boundary([(r, r) for r in (5.0, 20.0, 30.0, 40.0, 50.0)])
        with pytest.raises(ValueError):
            fit_gap([(r, 1e-3) for r in (10.0, 30.0, 40.0, 50.0)])

    def test_collinear_columns_warn(self):
        # over a hairline window rho and 1/rho correlate essentially exactly
        rho = np.linspace(1000.0, 1000.5, 8)
        data = [(r, 0.7 * r + 1.0) for r in rho]
        with pytest.warns(UserWarning, match="correlate"):
            fit_boundary(data)

    def test_stderrs_scale_with_noise(self):
        rng = np.random.default_rng(0)
        base = np.array([0.25 * r**2 + 0.5 * r + 1.0 for r in RHOS])
        small = fit_bulk(list(zip(RHOS, base + 1e-6 * rng.standard_normal(RHOS.size))))
        large = fit_bulk(list(zip(RHOS, base + 1e-2 * rng.standard_normal(RHOS.size))))
        assert large.stderrs["b"] > small.stderrs["b"]
        assert small.rms_residual >= 0.0


class TestSerialization:
    def test_json_fields(self):
        import json

        data = [(r, 0.25 * r**2 + 0.5 * r + 1.0) for r in RHOS]
        raw = json.loads(fit_bulk(data).to_json())
        assert set(raw) == {
            "model", "coefficients", "stderrs", "rms_residual",
            "window", "n_points", "derived",
        }
        assert raw["model"] == "bulk"
        assert set(raw["coefficients"]) == {"a", "b", "c"}
