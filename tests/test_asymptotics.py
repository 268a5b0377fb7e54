"""Closed-form reference laws and the effective-exponent fitter."""

import math
import tracemalloc

import numpy as np
import pytest

from strobofp import asymptotics
from strobofp import (
    BOUNDARY_CONST,
    BOUNDARY_SLOPE,
    BULK_A,
    BULK_B,
    FrameDistribution,
    GAP_BETA,
    InsufficientDataError,
    ProblemSpec,
    boundary_law,
    build_averaged_operator,
    bulk_law,
    effective_exponent,
    exponential_mean_tau,
    loglog_window_points,
    mean_frames,
    mode_sum_survival,
)


class TestConstants:
    def test_boundary_values(self):
        assert BOUNDARY_SLOPE == pytest.approx(0.7071068, abs=1e-7)
        assert BOUNDARY_CONST == pytest.approx(0.8239172, abs=1e-6)

    def test_bulk_linear_is_quarter_beta(self):
        assert BULK_B == GAP_BETA / 4.0

    def test_bulk_leading_is_quarter(self):
        assert BULK_A == 0.25


class TestBoundaryLaw:
    def test_reference_point(self):
        assert boundary_law(100.0) == pytest.approx(71.5346, abs=2e-4)

    def test_formula_value_at_zero(self):
        # outside the validity range but well-defined as a formula
        assert boundary_law(0.0) == BOUNDARY_CONST

    def test_linearity(self):
        for rho in (3.7, 12.0, 55.5):
            delta = boundary_law(rho) - boundary_law(rho - 1.0)
            assert delta == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


class TestBulkLaw:
    def test_reference_points(self):
        assert bulk_law(10.0) == pytest.approx(31.4038, abs=1e-4)
        assert bulk_law(40.0) == pytest.approx(423.894, abs=1e-3)

    def test_leading_term(self):
        assert bulk_law(1e6) / 1e12 == pytest.approx(0.25, rel=1e-5)


class TestExponentialMeanTau:
    def test_values(self):
        slope = 1.0 / math.sqrt(2.0)
        assert exponential_mean_tau(10.0, 0.5) == pytest.approx(26.0 + 10.0 * slope, rel=1e-15)
        assert exponential_mean_tau(30.0, 0.0) == exponential_mean_tau(30.0, 1.0)
        assert exponential_mean_tau(30.0, 0.0) == pytest.approx(1.0 + 30.0 * slope, rel=1e-15)

    @pytest.mark.parametrize("rho", [2.0, 20.0, 100.0])
    @pytest.mark.parametrize("y0", [0.0, 0.5])
    def test_grid_error_is_second_order(self, rho, y0):
        # the band holds exact cell means of the Laplace kernel, so the
        # midpoint grid's O(h^2) error is what is left: it falls by four
        # per halving of h from the default grid
        mu = FrameDistribution.exponential()
        n = ProblemSpec(rho=rho).n_grid
        errors = []
        for k in (1, 2, 4):
            op = build_averaged_operator(ProblemSpec(rho, y0, n_grid=k * n), mu)
            errors.append(mean_frames(op, y0).mean_tau - exponential_mean_tau(rho, y0))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.9 <= coarse / fine <= 4.1


def _mode_sum_per_n(rho, n, start, tol=1e-12):
    """One n at a time: every mode up to n's cap, terms below tol dropped."""
    log_tol = max(math.log(1.0 / tol), 1.0)
    if start == "boundary":
        m = np.arange(int(rho * math.sqrt(2.0 * log_tol / n) / math.pi) + 3)
        k = 2 * m + 1
        terms = np.exp(-0.5 * math.pi**2 * k**2 * n / rho**2) / k
        return 0.5 + (2.0 / math.pi) * terms[terms >= tol].sum()
    m = np.arange(int(rho * math.sqrt(log_tol / (2.0 * n)) / math.pi) + 3)
    terms = np.exp(-2.0 * math.pi**2 * (m + 1) ** 2 * n / rho**2) / (2.0 * m + 2)
    keep = terms >= tol
    return (2.0 / math.pi) * (np.where(m % 2 == 0, 1.0, -1.0)[keep] * terms[keep]).sum()


class TestModeSums:
    def test_boundary_long_time_limit_is_half(self):
        # the odd-mode sum tends to 1/2, not 0: a documented validity limit
        assert mode_sum_survival(10.0, 10**9, "boundary") == 0.5

    def test_boundary_decreasing_in_n(self):
        rho = 20.0
        n_values = [40, 80, 160, 320]
        s = [mode_sum_survival(rho, n, "boundary") for n in n_values]
        assert np.all(np.diff(s) < 0.0)
        assert all(0.5 < x < 1.5 for x in s)

    def test_boundary_truncation_stable(self, monkeypatch):
        a = mode_sum_survival(20.0, 40, "boundary")
        monkeypatch.setattr(asymptotics, "TRUNCATION_TOL", 1e-6)
        b = mode_sum_survival(20.0, 40, "boundary")
        assert a != b
        assert a == pytest.approx(b, abs=1e-5)

    def test_bulk_alternating_bound(self):
        rho, n = 30.0, 200
        value = mode_sum_survival(rho, n, "bulk")
        first = (2.0 / math.pi) * math.exp(-2.0 * math.pi**2 * n / rho**2) / 2.0
        assert 0.0 < value <= first

    @pytest.mark.parametrize("start", ["boundary", "bulk"])
    @pytest.mark.parametrize("rho", [10.0, 30.0, 100.0])
    def test_array_matches_per_n_loop(self, rho, start):
        # the per-n reference sums each n's kept terms on its own; the array
        # path sums mode by mode, so only the order of the additions differs
        n = np.arange(1, 2001)
        values = mode_sum_survival(rho, n, start)
        assert values.shape == n.shape
        reference = np.array([_mode_sum_per_n(rho, int(k), start) for k in n])
        assert np.max(np.abs(values - reference)) <= 1e-14
        shuffled = np.random.default_rng(5).permutation(n).reshape(40, 50)
        assert np.array_equal(mode_sum_survival(rho, shuffled, start), values[shuffled - 1])
        scalar = mode_sum_survival(rho, 7, start)
        assert type(scalar) is float and scalar == values[6]

    def test_array_memory_is_linear_in_n(self):
        # an n_max x modes matrix would take ~110 MB here (711 boundary modes)
        n = np.arange(1, 20001)
        tracemalloc.start()
        try:
            mode_sum_survival(300.0, n, "boundary")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            mode_sum_survival(10.0, 0, "boundary")
        with pytest.raises(ValueError):
            mode_sum_survival(10.0, np.array([3, 0, 5]), "bulk")
        with pytest.raises(ValueError):
            mode_sum_survival(10.0, 5, "sideways")

    def test_bulk_mode_sum_vs_operator_reported(self):
        # the stated even-mode exponent decays 4x faster than the operator
        # gap, so the two disagree strongly at large n; the deviation is
        # reported rather than bounded (limited-validity reference formula)
        from strobofp import ProblemSpec, build_operator, survival_sequence

        rho, n = 30.0, 200
        truth = survival_sequence(build_operator(ProblemSpec(rho=rho)), 0.5, n).values[n]
        reference = mode_sum_survival(rho, n, "bulk")
        assert truth > 0.0 and reference > 0.0
        print(f"\nbulk mode sum rho={rho:g} n={n}: operator S_n={truth:.6f}, "
              f"mode sum={reference:.6f}, relative deviation "
              f"{(reference - truth) / truth:+.3f}")


class TestEffectiveExponent:
    def test_exact_power_law_recovery(self):
        rho = loglog_window_points(5.0, 80.0, 25)
        for k in (2.0, 1.5, 0.75):
            pairs = [(r, 3.0 * r**k) for r in rho]
            assert effective_exponent(pairs, (5.0, 80.0)) == pytest.approx(k, abs=1e-9)

    def test_window_filtering(self):
        pairs = [(r, r**2) for r in (1.0, 2.0, 30.0, 40.0, 50.0, 60.0, 70.0)]
        assert effective_exponent(pairs, (25.0, 75.0)) == pytest.approx(2.0, abs=1e-9)

    def test_insufficient_data(self):
        pairs = [(r, r**2) for r in (10.0, 20.0, 30.0, 40.0)]
        with pytest.raises(InsufficientDataError):
            effective_exponent(pairs, (5.0, 50.0))

    @pytest.mark.parametrize("values", [[(1.0, 2.0, 3.0)] * 6, [1.0, 2.0, 3.0, 4.0, 5.0]])
    def test_rejects_malformed_pairs(self, values):
        with pytest.raises(ValueError, match=r"\(rho, etau\) pairs"):
            effective_exponent(values, (0.5, 6.0))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            effective_exponent([(1.0, -2.0)] * 6, (0.5, 2.0))

    def test_window_points_are_log_uniform(self):
        pts = loglog_window_points(10.0, 100.0, 20)
        assert pts.size == 20
        assert pts[0] == pytest.approx(10.0)
        assert pts[-1] == pytest.approx(100.0)
        steps = np.diff(np.log(pts))
        assert np.allclose(steps, steps[0])
