"""Kernel, grid and operator-construction behavior."""

import math
import re

import numpy as np
import pytest

from strobofp import (
    FrameDistribution,
    ProblemSpec,
    ResolutionError,
    build_averaged_operator,
    build_operator,
    default_grid_size,
    mean_frames,
)
from strobofp.operator_core import MIN_GRID, _band_width, averaged_kernel, laplace_band
from normal_cdf import ndtr

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_kernel(u, rho):
    """The one-frame kernel of deterministic frames, from the package's evaluator."""
    return averaged_kernel(u, rho, FrameDistribution.deterministic(), 1.0)


class TestGaussianKernel:
    def test_peak_value(self):
        assert gaussian_kernel(0.0, 1.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-12)

    def test_unit_displacement(self):
        expected = math.exp(-0.5) / SQRT_2PI  # 0.2419707...
        assert gaussian_kernel(1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("u", [0.1, 0.7, 2.3])
    @pytest.mark.parametrize("rho", [0.5, 3.0, 40.0])
    def test_symmetry(self, u, rho):
        assert gaussian_kernel(u, rho) == gaussian_kernel(-u, rho)

    @pytest.mark.parametrize("rho", [0.5, 3.0, 50.0])
    def test_normalization(self, rho):
        # high-order quadrature over the cutoff core plus the analytic tail
        eta = 8.5
        nodes, weights = np.polynomial.legendre.leggauss(128)
        half = eta / rho
        u = half * nodes
        core = float((half * weights) @ gaussian_kernel(u, rho))
        tail = 2.0 * ndtr(-eta)
        assert core + tail == pytest.approx(1.0, abs=1e-10)


class TestProblemSpec:
    def test_resolution_rule_default(self):
        assert ProblemSpec(rho=10.0).n_grid == 180
        assert ProblemSpec(rho=20.0).n_grid == 360

    def test_small_rho_floor(self):
        assert ProblemSpec(rho=0.5).n_grid == 64
        assert default_grid_size(1.0) == 64

    def test_explicit_override_kept(self):
        assert ProblemSpec(rho=10.0, n_grid=500).n_grid == 500

    @pytest.mark.parametrize("kwargs", [
        dict(rho=-1.0),
        dict(rho=1.0, y0=1.5),
        dict(rho=1.0, y0=-0.1),
        dict(rho=1.0, cutoff_eta=5.0),
        dict(rho=1.0, n_grid=1),
        dict(rho=math.inf),
        dict(rho=math.nan),
        dict(rho=5.0, cutoff_eta=math.inf),
        dict(rho=5.0, cutoff_eta=math.nan),
        dict(rho=1e308),  # 18 rho grid points overflow a float
    ])
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(ValueError):
            ProblemSpec(**kwargs)

    @pytest.mark.parametrize("rho", [1e-310, 5e-324, np.nextafter(np.finfo(float).tiny, 0.0)])
    def test_subnormal_rho_names_the_bound(self, rho):
        with pytest.raises(ValueError, match=r"smallest normal float 2\.2250738585072014e-308"):
            ProblemSpec(rho=rho)

    def test_smallest_normal_rho_admitted(self):
        assert ProblemSpec(rho=np.finfo(float).tiny).n_grid == MIN_GRID


class TestBuildOperator:
    def test_bandwidth_from_cutoff_rule(self):
        op = build_operator(ProblemSpec(rho=10.0, n_grid=180, cutoff_eta=8.5))
        assert op.bandwidth == 153

    def test_midpoint_grid_and_uniform_weights(self):
        op = build_operator(ProblemSpec(rho=5.0))
        n = op.n
        assert np.array_equal(op.grid, (np.arange(1, n + 1) - 0.5) / n)
        assert np.all(op.weights == 1.0 / n)

    def test_resolution_error_when_band_unresolved(self):
        with pytest.raises(ResolutionError):
            build_operator(ProblemSpec(rho=100.0, n_grid=40))

    @pytest.mark.parametrize("rho", [0.5, 2.0, 20.0])
    def test_row_sums_substochastic(self, rho):
        op = build_operator(ProblemSpec(rho=rho))
        sums = op.matvec(np.ones(op.n))
        assert np.all(sums > 0.0)
        assert np.all(sums <= 1.0)

    def test_center_row_sum_near_unity_at_large_rho(self):
        op = build_operator(ProblemSpec(rho=20.0))
        center = op.matvec(np.ones(op.n))[op.n // 2]
        # interior leakage is O(e^{-rho^2/8}), far below float resolution here
        assert center > 1.0 - 1e-12

    def test_band_nonnegative(self):
        op = build_operator(ProblemSpec(rho=7.0))
        assert np.all(op.band >= 0.0)

    def test_dense_matrix_symmetric(self):
        op = build_operator(ProblemSpec(rho=2.0))
        dense = op.toarray()
        assert np.array_equal(dense, dense.T)

    def test_matvec_matches_dense(self):
        op = build_operator(ProblemSpec(rho=2.0))
        rng = np.random.default_rng(5)
        vec = rng.random(op.n)
        assert np.allclose(op.matvec(vec), op.toarray() @ vec, rtol=1e-13, atol=1e-15)

    def test_band_truncation_insensitive(self):
        # raising the cutoff from 8.5 to 12 moves M by < 1e-9 relative
        m0 = mean_frames(build_operator(ProblemSpec(rho=20.0)), 0.5).M
        m1 = mean_frames(build_operator(ProblemSpec(rho=20.0, cutoff_eta=12.0)), 0.5).M
        assert abs(m1 - m0) / m0 < 1e-9

    def test_self_convergence_is_second_order(self):
        # rho=20: N=360 vs 720 agree to ~1.6e-4 relative and the difference
        # shrinks by ~4x per refinement (the midpoint rule is h^2-limited at
        # the walls, where the surviving density has nonzero slope)
        ms = [
            mean_frames(build_operator(ProblemSpec(rho=20.0, n_grid=n)), 0.0).M
            for n in (360, 720, 1440)
        ]
        d1 = abs(ms[0] - ms[1]) / ms[1]
        d2 = abs(ms[1] - ms[2]) / ms[2]
        assert d1 < 5e-4
        assert 3.0 < d1 / d2 < 5.0


class TestFrameDistribution:
    def test_variances(self):
        assert FrameDistribution.deterministic().variance == 0.0
        assert FrameDistribution.two_point(0.5, 1.5, 0.5).variance == pytest.approx(0.25)
        assert FrameDistribution.uniform_jitter(0.5).variance == pytest.approx(0.25 / 3.0)
        assert FrameDistribution.exponential().variance == 1.0

    def test_two_point_mean_normalization(self):
        mu = FrameDistribution.two_point(1.0, 3.0, 0.25)
        s, w = mu.width_nodes()
        assert (s**2) @ w == pytest.approx(1.0, abs=1e-14)
        # variance invariant under overall rescaling of (u1, u2)
        assert mu.variance == pytest.approx(
            FrameDistribution.two_point(0.5, 1.5, 0.25).variance
        )

    @pytest.mark.parametrize("mu", [
        FrameDistribution.uniform_jitter(0.5),
    ])
    def test_continuous_nodes_have_unit_mean(self, mu):
        s, w = mu.width_nodes()
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert (s**2) @ w == pytest.approx(1.0, abs=5e-7)

    def test_exponential_has_no_width_nodes(self):
        # its mixture is the closed-form Laplace kernel, not a node set
        with pytest.raises(ValueError):
            FrameDistribution.exponential().width_nodes()

    def test_parse_round_trip(self):
        for text in ["deterministic", "exponential", "jitter:0.25", "twopoint:0.5,1.5,0.5"]:
            mu = FrameDistribution.parse(text)
            assert FrameDistribution.parse(mu.describe()) == mu

    @pytest.mark.parametrize("text", ["nope", "twopoint:1,2", "jitter:",
                                      "exponential:3", "deterministic:junk",
                                      "twopoint:inf,1,0.5", "twopoint:1,inf,0",
                                      "twopoint:nan,1,0.5"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            FrameDistribution.parse(text)

    @pytest.mark.parametrize("ctor", [
        lambda: FrameDistribution.two_point(-0.5, 1.5, 0.5),
        lambda: FrameDistribution.two_point(0.5, 0.0, 0.5),
        lambda: FrameDistribution.two_point(0.5, 1.5, 1.5),
        lambda: FrameDistribution.uniform_jitter(1.0),
        lambda: FrameDistribution.uniform_jitter(-0.1),
    ])
    def test_invalid_parameters(self, ctor):
        with pytest.raises(ValueError):
            ctor()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FrameDistribution("bogus")

    @pytest.mark.parametrize("mu", [
        FrameDistribution.two_point(0.5, 1.5, 0.5),
        FrameDistribution.uniform_jitter(0.5),
        FrameDistribution.exponential(),
    ])
    def test_sampling_moments(self, mu):
        gen = np.random.default_rng(1234)
        v = mu.sample_intervals(gen, 200_000)
        assert np.all(v > 0.0)
        assert v.mean() == pytest.approx(1.0, abs=0.01)
        assert v.var() == pytest.approx(mu.variance, abs=0.02)

    @pytest.mark.parametrize("mu", [
        FrameDistribution.deterministic(),
        FrameDistribution.two_point(0.5, 1.5, 0.5),
        FrameDistribution.uniform_jitter(0.5),
        FrameDistribution.exponential(),
    ])
    def test_step_moments(self, mu):
        # steps sqrt(U) xi: mean 0, variance E[U] = 1 and fourth moment
        # 3 E[U^2] = 3 (1 + Var U), each within five of its standard errors
        gen = np.random.default_rng(1234)
        x = np.empty(200_000)
        mu.sample_steps(gen, x)
        for power, expected in ((1, 0.0), (2, 1.0), (4, 3.0 * (1.0 + mu.variance))):
            moment = x**power
            assert abs(moment.mean() - expected) < 5.0 * moment.std() / math.sqrt(x.size)


class TestAveragedOperator:
    def test_deterministic_reproduces_build_operator_bitwise(self):
        spec = ProblemSpec(rho=10.0)
        base = build_operator(spec)
        avg = build_averaged_operator(spec, FrameDistribution.deterministic())
        assert np.array_equal(base.band, avg.band)
        assert base.bandwidth == avg.bandwidth

    def test_degenerate_two_point_reproduces_deterministic(self):
        spec = ProblemSpec(rho=10.0)
        base = build_operator(spec)
        avg = build_averaged_operator(spec, FrameDistribution.two_point(1.0, 1.0, 0.3))
        assert np.array_equal(base.band, avg.band)

    def test_zero_jitter_reproduces_deterministic(self):
        spec = ProblemSpec(rho=10.0)
        base = build_operator(spec)
        avg = build_averaged_operator(spec, FrameDistribution.uniform_jitter(0.0))
        assert np.array_equal(base.band, avg.band)

    def test_discrete_mixture_is_explicit_gaussian_sum(self):
        spec = ProblemSpec(rho=12.0)
        mu = FrameDistribution.two_point(0.5, 1.5, 0.3)
        op = build_averaged_operator(spec, mu)
        n = spec.n_grid
        u = np.arange(op.bandwidth + 1) / n
        m = 0.3 * 0.5 + 0.7 * 1.5  # mixture mean; nodes are rescaled by it
        r1, r2 = 12.0 / math.sqrt(0.5 / m), 12.0 / math.sqrt(1.5 / m)
        expected = (
            0.3 * (r1 / SQRT_2PI) * np.exp(-0.5 * (r1 * u) ** 2)
            + 0.7 * (r2 / SQRT_2PI) * np.exp(-0.5 * (r2 * u) ** 2)
        ) / n
        assert np.allclose(op.band, expected, rtol=1e-15, atol=0.0)

    def test_exponential_band_matches_closed_form(self):
        # exponential intervals give the Laplace kernel (a/2) e^{-a|u|} with
        # a = sqrt(2) rho; band[k] is its integral over [(k - 1/2)/N, (k + 1/2)/N]
        for rho in (0.05, 1.0, 10.0, 100.0):
            op = build_averaged_operator(ProblemSpec(rho=rho), FrameDistribution.exponential())
            n = op.n
            k = np.arange(op.bandwidth + 1)
            a = math.sqrt(2.0) * rho
            lo = (k - 0.5) / n
            exact = np.where(k == 0, -np.expm1(-0.5 * a / n),
                             -0.5 * np.exp(-a * lo) * np.expm1(-a / n))
            assert np.max(np.abs(op.band - exact) / exact) < 1e-12, rho
            # the geometric form the resolvent's closed-form preconditioner relies on
            s, r = laplace_band(op)
            assert np.max(np.abs(op.band[1:] - s * r ** k[1:]) / exact[1:]) < 1e-12, rho

    def test_exponential_cutoff_rule(self):
        # the Laplace tail e^{-sqrt(2) rho u} is cut at e^{-eta^2/2}
        spec = ProblemSpec(rho=100.0)
        op = build_averaged_operator(spec, FrameDistribution.exponential())
        n, eta = spec.n_grid, spec.cutoff_eta
        rule = min(math.floor(eta**2 * n / (2.0 * math.sqrt(2.0) * 100.0)), n - 1)
        assert op.bandwidth == rule == 459

    @pytest.mark.parametrize("rho, eta, dist, expected", [
        (5.0, 1e308, "deterministic", "full"),
        (5.0, 1e308, "exponential", "full"),
        (5.0, 1e200, "jitter:0.5", "full"),
        # eta^2 n overflows at rho = 1e306, the reach itself does not
        (1e306, 8.5, "exponential", 459),
        (1e306, 8.5, "deterministic", 153),
    ])
    def test_cutoff_rule_survives_float_overflow(self, rho, eta, dist, expected):
        spec = ProblemSpec(rho=rho, cutoff_eta=eta)
        bw = _band_width(spec, FrameDistribution.parse(dist))
        assert bw == (spec.n_grid - 1 if expected == "full" else expected)

    def test_exponential_rows_substochastic(self):
        op = build_averaged_operator(ProblemSpec(rho=20.0), FrameDistribution.exponential())
        sums = op.matvec(np.ones(op.n))
        assert np.all(sums > 0.0)
        assert np.all(sums <= 1.0)

    def test_cutoff_scales_with_widest_component(self):
        spec = ProblemSpec(rho=40.0)
        base = build_operator(spec)
        wide = build_averaged_operator(spec, FrameDistribution.two_point(0.5, 1.5, 0.5))
        assert wide.bandwidth > base.bandwidth

    def test_narrow_component_needs_the_grid_it_names(self):
        # s = sqrt(1e-4 / 0.50005): 4 steps need N >= 4 rho / (eta s) = 166.4
        mu = FrameDistribution.two_point(1e-4, 1.0, 0.5)
        with pytest.raises(ResolutionError, match=r"narrowest .*\(N >= 167\)"):
            build_averaged_operator(ProblemSpec(rho=5.0, n_grid=166), mu)
        op = build_averaged_operator(ProblemSpec(rho=5.0, n_grid=167), mu)
        assert np.all(op.matvec(np.ones(op.n)) <= 1.0)

    @pytest.mark.parametrize("rho, dist", [
        (40.0, "twopoint:0.0001,1,0.9"),  # row sums up to 1.0030, leading eigenvalue 1.00046
        (100.0, "twopoint:0.0001,1,0.9"),  # 1.0030 and 1.0026
        (20.0, "twopoint:1e-6,1,0.999"),  # 1.0026 and 1.0026
    ])
    def test_supercritical_aliasing_refused_with_the_grid_it_needs(self, rho, dist):
        # the narrow component's point samples alias: its mass exceeds 1 by
        # about 2 e^{-2 pi^2 (s N/rho)^2}, and the operator by more than it leaks
        mu = FrameDistribution.parse(dist)
        with pytest.raises(ResolutionError, match=(
                r"aliases the narrowest interval component .* exceeds unit spectral "
                r"radius; .*\(N >= \d+\)")) as refused:
            build_averaged_operator(ProblemSpec(rho=rho), mu)
        need = int(re.search(r"N >= (\d+)", str(refused.value)).group(1))
        op = build_averaged_operator(ProblemSpec(rho=rho, n_grid=need), mu)
        assert mean_frames(op, 0.5).M > 0.0

    @pytest.mark.parametrize("rho, dist", [
        (20.0, "twopoint:0.0001,1,0.95"),  # row sums up to 0.99875
        (20.0, "twopoint:1e-5,1,0.999"),  # 0.99925
        # aliasing lifts the row sums above 1, but the leak keeps the
        # leading eigenvalue below it: 0.9976, 0.99956 and 0.9945
        (40.0, "twopoint:0.0001,1,0.95"),
        (100.0, "twopoint:0.0001,1,0.95"),
        (20.0, "twopoint:0.0001,1,0.9"),
    ])
    def test_subcritical_aliasing_admitted(self, rho, dist):
        op = build_averaged_operator(ProblemSpec(rho=rho), FrameDistribution.parse(dist))
        assert op.n == default_grid_size(rho)
