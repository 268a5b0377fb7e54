"""Resolvent solves, survival sequences and the leading spectral pair."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from strobofp import (
    FrameDistribution,
    ProblemSpec,
    SolverError,
    build_averaged_operator,
    build_operator,
    exit_stats,
    gap_expansion,
    initial_vector,
    mean_frames,
    neumann_partial_sum,
    spectral_pair,
    survival_sequence,
)
from strobofp import resolvent
from strobofp.operator_core import DEFAULT_CUTOFF_ETA, StroboOperator
from strobofp.resolvent import (
    EIGEN_TOL,
    RESIDUAL_TOL,
    _factorization,
    _resolvent_solve,
    _weight_resolvent,
)


def op_for(rho, **kwargs):
    return build_operator(ProblemSpec(rho=rho, **kwargs))


class TestInitialVector:
    def test_palindromic_for_centered_start(self):
        op = op_for(4.0)
        h = initial_vector(op, 0.5)
        assert np.allclose(h, h[::-1], rtol=1e-12)

    def test_one_step_survival_closed_form(self):
        # w . h equals Phi(rho(1-y0)) - Phi(-rho y0) up to quadrature error
        cases = [(2.0, 0.5, 1e-4), (10.0, 0.5, 1e-7), (10.0, 0.0, 1e-9)]
        for rho, y0, tol in cases:
            op = op_for(rho)
            s1 = float(op.weights @ initial_vector(op, y0))
            exact = ndtr(rho * (1.0 - y0)) - ndtr(-rho * y0)
            assert s1 == pytest.approx(exact, abs=tol)

    def test_normal_cdf_table_value(self):
        op = op_for(2.0)
        s1 = float(op.weights @ initial_vector(op, 0.5))
        assert s1 == pytest.approx(0.6826895, abs=1e-4)

    def test_exponential_profile_is_exactly_even(self):
        # every offset y_i - 1/2 on N = 64 is exact, so the centred profile
        # must have no odd part and pass the solver's evenness check
        op = build_averaged_operator(ProblemSpec(rho=0.05), FrameDistribution.exponential())
        h = initial_vector(op, 0.5)
        assert np.array_equal(h, h[::-1])
        x = _resolvent_solve(op, h)
        assert np.array_equal(x, x[::-1])

    def test_rejects_start_outside_interval(self):
        with pytest.raises(ValueError):
            initial_vector(op_for(2.0), 1.2)


class TestSurvivalSequence:
    def test_starts_at_one_and_decreases(self):
        series = survival_sequence(op_for(6.0), 0.5, 200)
        values = series.values
        assert values[0] == 1.0
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) <= 1e-15)

    def test_wide_kernel_exits_in_one_frame(self):
        series = survival_sequence(op_for(0.01), 0.5, 3)
        assert series.values[1] == pytest.approx(0.004, abs=5e-4)

    def test_single_step_matches_normal_cdf(self):
        series = survival_sequence(op_for(10.0), 0.5, 1)
        assert series.values[1] == pytest.approx(1.0 - 5.733e-7, abs=1e-7)

    def test_ratio_converges_to_lambda0(self):
        op = op_for(6.0)
        lam, _, _ = spectral_pair(op)
        values = survival_sequence(op, 0.5, 60).values
        ratios = values[2:] / values[1:-1]
        assert abs(ratios[-1] - lam) < 1e-9
        # geometric approach: late ratios are closer than early ones
        assert abs(ratios[-1] - lam) < abs(ratios[5] - lam)

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            survival_sequence(op_for(2.0), 0.5, 0)


class TestMeanFrames:
    def test_boundary_start_reference_value(self):
        assert mean_frames(op_for(20.0), 0.0).M == pytest.approx(13.966, abs=0.01)

    def test_bulk_start_reference_value(self):
        assert mean_frames(op_for(40.0), 0.5).M == pytest.approx(422.9, abs=0.1)

    def test_mean_tau_offset(self):
        stats = mean_frames(op_for(7.0), 0.3)
        assert stats.mean_tau == 1.0 + stats.M

    def test_mirror_symmetry(self):
        op = op_for(20.0)
        m1 = mean_frames(op, 0.3).M
        m2 = mean_frames(op, 0.7).M
        assert abs(m1 - m2) / m1 < 1e-12

    def test_monotone_in_rho(self):
        values = [mean_frames(op_for(r), 0.3).M for r in (1.0, 2.0, 5.0, 10.0, 20.0)]
        assert np.all(np.diff(values) > 0.0)

    def test_residual_contract(self):
        op = op_for(200.0)
        h = initial_vector(op, 0.5)
        x = _resolvent_solve(op, h)
        residual = np.max(np.abs(x - op.matvec(x) - h))
        assert residual < 1e-10

    def test_supercritical_operator_raises(self):
        # a hand-built band with row sums above 1 must be rejected
        n, bw = 64, 8
        band = np.full(bw + 1, 1.2 / (2 * bw + 1))
        bad = StroboOperator(
            rho=1.0,
            grid=(np.arange(1, n + 1) - 0.5) / n,
            weights=np.full(n, 1.0 / n),
            band=band,
            bandwidth=bw,
            law=FrameDistribution.deterministic(),
        )
        with pytest.raises(SolverError):
            mean_frames(bad, 0.5)

    def test_banded_solve_matches_dense_solver(self):
        # independent route: dense numpy solve of (I - K) x = h on the
        # interval-averaged operator
        spec = ProblemSpec(rho=8.0)
        op = build_averaged_operator(spec, FrameDistribution.uniform_jitter(0.5))
        h = initial_vector(op, 0.35)
        x = np.linalg.solve(np.eye(op.n) - op.toarray(), h)
        dense_m = float(op.weights @ x)
        assert mean_frames(op, 0.35).M == pytest.approx(dense_m, rel=1e-12)

    def test_wide_kernel_mean_is_small(self):
        # kernel much wider than the interval: exit is almost certain each
        # frame, so M stays well below one
        stats = mean_frames(op_for(0.2), 0.5)
        assert 0.0 < stats.M < 0.15
        assert stats.mean_tau == 1.0 + stats.M

    def test_dirichlet_limit_with_slope_correction(self):
        # M/rho^2 -> y0(1-y0) with a universal linear correction ~0.583/rho
        for rho, rel_tol in ((100.0, 0.02), (200.0, 0.01)):
            op = op_for(rho)
            for y0 in (0.25, 0.5, 0.75):
                target = y0 * (1.0 - y0)
                ratio = mean_frames(op, y0).M / rho**2
                assert abs(ratio - (target + 0.583014 / rho)) < rel_tol * target


class TestSpectralPair:
    def test_eigenvalue_in_unit_interval(self):
        lam, _, _ = spectral_pair(op_for(50.0))
        assert 0.0 < lam < 1.0

    def test_gap_against_reference_expansion(self):
        # the closed-form expansion overshoots the true gap by ~2.7/rho relative
        for rho in (20.0, 50.0, 120.0):
            lam, _, _ = spectral_pair(op_for(rho))
            gap = 1.0 - lam
            assert abs(gap_expansion(rho) - gap) / gap <= 10.0 / rho

    def test_gap_quarter_scaling(self):
        g1 = 1.0 - spectral_pair(op_for(60.0))[0]
        g2 = 1.0 - spectral_pair(op_for(120.0))[0]
        assert g2 / g1 == pytest.approx(0.25, abs=0.02)

    def test_eigenvector_positive_and_symmetric(self):
        _, vec, _ = spectral_pair(op_for(15.0))
        assert np.all(vec > 0.0)
        assert np.allclose(vec, vec[::-1], rtol=1e-8)

    def test_a0_normalizes_the_tail(self):
        op = op_for(20.0)
        lam, _, a0 = spectral_pair(op, y0=0.5)
        values = survival_sequence(op, 0.5, 400).values
        assert values[400] / lam**400 == pytest.approx(a0, rel=1e-4)

    @pytest.mark.parametrize("rho, dist", [
        (0.05, "deterministic"),
        (1.0, "deterministic"),
        (5.0, "deterministic"),
        (50.0, "deterministic"),
        (10.0, "exponential"),
        (40.0, "exponential"),  # N = 720 with the band cut at 459
        (1.0, "twopoint:0.5,1.5,0.5"),
    ])
    def test_matches_dense_eigensolver(self, rho, dist):
        # independent route: dense symmetric eigensolver on the same matrix
        spec, mu = ProblemSpec(rho=rho), FrameDistribution.parse(dist)
        if mu.kind == "deterministic":
            op = build_operator(spec)
        else:
            op = build_averaged_operator(spec, mu)
        lam, vec, _ = spectral_pair(op)
        assert abs(lam - np.linalg.eigvalsh(op.toarray())[-1]) <= 1e-14
        assert np.linalg.norm(op.matvec(vec) - lam * vec) <= EIGEN_TOL * lam

    def test_large_rho_bulk_amplitude(self):
        # N = 7200 is beyond a dense solve; the bulk mode's overlap amplitude
        # tends to 4/pi as rho grows
        _, _, a0 = spectral_pair(op_for(400.0), y0=0.5)
        assert abs(a0 - 4.0 / math.pi) <= 5e-5

    def test_averaged_operator_spectrum(self):
        op = build_averaged_operator(ProblemSpec(rho=10.0), FrameDistribution.exponential())
        lam, vec, _ = spectral_pair(op)
        assert 0.0 < lam < 1.0
        assert np.all(vec > 0.0)


def law_op(rho, dist, n_grid=None, eta=DEFAULT_CUTOFF_ETA):
    spec = ProblemSpec(rho=rho, n_grid=n_grid, cutoff_eta=eta)
    mu = FrameDistribution.parse(dist)
    if mu.kind == "deterministic":
        return build_operator(spec)
    return build_averaged_operator(spec, mu)


LAWS = ["deterministic", "exponential", "jitter:0.5", "twopoint:0.5,1.5,0.5"]


class TestMirrorFold:
    # (rho, n_grid): odd N at n_grid 65, 91 and 235; bandwidth >= ceil(N/2)
    # at rho 0.05 and 0.3 (N = 64) and at n_grid 65 and 91; a band narrower
    # than the half at N = 360 and, but for the exponential law, at 235
    @pytest.mark.parametrize("dist", LAWS)
    @pytest.mark.parametrize("rho, n_grid", [
        (0.05, None), (0.3, None), (3.0, 65), (10.0, 91), (40.0, 235), (20.0, None),
    ])
    def test_mean_frames_matches_dense_solve(self, rho, n_grid, dist):
        op = law_op(rho, dist, n_grid)
        dense = np.eye(op.n) - op.toarray()
        for y0 in (0.0, 0.13, 0.5, 1.0):
            h = initial_vector(op, y0)
            dense_m = float(op.weights @ np.linalg.solve(dense, h))
            assert mean_frames(op, y0).M == pytest.approx(dense_m, rel=1e-12)

    @pytest.mark.parametrize("rho, n_grid, dist", [
        (3.0, 65, "deterministic"),
        (40.0, 235, "deterministic"),
        (10.0, 91, "exponential"),
    ])
    def test_odd_grid_spectral_pair_matches_dense(self, rho, n_grid, dist):
        op = law_op(rho, dist, n_grid)
        lam, vec, _ = spectral_pair(op)
        assert abs(lam - np.linalg.eigvalsh(op.toarray())[-1]) <= 1e-14
        assert np.linalg.norm(op.matvec(vec) - lam * vec) <= EIGEN_TOL * lam

    @pytest.mark.parametrize("rho, n_grid", [
        (0.05, None), (20.0, None), (3.0, 65), (20.0, 235),
    ])
    def test_factor_is_half_size(self, rho, n_grid):
        op = op_for(rho, n_grid=n_grid)
        m = (op.n + 1) // 2
        assert _factorization(op)[0].shape == (min(op.bandwidth, m - 1) + 1, m)

    @pytest.mark.parametrize("rho", [0.05, 3.0, 40.0, 1000.0])
    def test_exponential_route_selection(self, rho):
        # the default cutoff leaves a tail below 2 eps: a tridiagonal factor;
        # eta = 6 cuts at ~1e-8, so beyond a full band (rho >= 12.8) the
        # exponential law keeps the half-size band
        m = (law_op(rho, "exponential").n + 1) // 2
        assert _factorization(law_op(rho, "exponential"))[0].shape == (2, m)
        op = law_op(rho, "exponential", eta=6.0)
        if op.bandwidth == op.n - 1:
            assert _factorization(op)[0].shape == (2, m)
        else:
            assert _factorization(op)[0].shape == (min(op.bandwidth, m - 1) + 1, m)

    def test_route_decided_once_per_operator(self, monkeypatch):
        # a solve, a second start point and every eigen step read the route
        # that the factorization cached; fresh operators, so nothing is cached
        decisions = []
        route = resolvent._laplace_route

        def counted(op):
            decisions.append(op.law.kind)
            return route(op)

        monkeypatch.setattr(resolvent, "_laplace_route", counted)
        for dist in ("exponential", "deterministic"):
            op = law_op(100.0, dist)
            exit_stats(op, 0.5)
            mean_frames(op, 0.0)
        assert decisions == ["exponential", "deterministic"]

    def test_solve_rejects_non_palindromic_rhs(self):
        op = op_for(20.0)
        with pytest.raises(ValueError, match="mirror-even"):
            _resolvent_solve(op, initial_vector(op, 0.3))


class TestWeightResolvent:
    def test_one_solve_serves_every_start(self, monkeypatch):
        calls = []
        solve = resolvent.cho_solve_banded

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(resolvent, "cho_solve_banded", counted)
        # the banded route and, for exponential frames, the Laplace route
        for dist in ("deterministic", "exponential"):
            calls.clear()
            op = law_op(30.0, dist)
            mean_frames(op, 0.5)
            first = len(calls)
            for y0 in (0.0, 0.13, 0.5, 1.0):
                mean_frames(op, y0)
            assert 1 <= first <= 2  # one solve, at most one refinement
            assert len(calls) == first

    @pytest.mark.parametrize("dist", ["deterministic", "exponential"])
    @pytest.mark.parametrize("rho", [0.05, 20.0, 200.0, 1000.0, 3000.0])
    def test_backward_error_contract(self, rho, dist):
        # the cached u, and the even part of the centred h, whose solution
        # grows like rho^2 (an absolute residual bound fails it at rho=1000);
        # rounding leaves h itself odd beyond the bound at rho=0.05.
        # Exponential frames also at eta = 6, which keeps the banded route
        # once the band is cut (rho >= 20 here)
        etas = (DEFAULT_CUTOFF_ETA, 6.0) if dist == "exponential" else (DEFAULT_CUTOFF_ETA,)
        for eta in etas:
            op = law_op(rho, dist, eta=eta)
            h = initial_vector(op, 0.5)
            h = 0.5 * (h + h[::-1])
            # ||I - K||_inf from the row sums: K >= 0 and its diagonal is below 1
            norm = np.max(1.0 - 2.0 * op.band[0] + op.row_sums())
            for rhs, x in ((op.weights, _weight_resolvent(op)),
                           (h, _resolvent_solve(op, h))):
                residual = np.max(np.abs(rhs - (x - op.matvec(x))))
                scale = norm * np.max(np.abs(x)) + np.max(np.abs(rhs))
                assert residual <= RESIDUAL_TOL * scale


class TestNeumannSeries:
    def test_single_term_is_s1(self):
        op = op_for(5.0)
        s1 = survival_sequence(op, 0.5, 1).values[1]
        assert neumann_partial_sum(op, 0.5, 1) == pytest.approx(s1, abs=1e-15)

    def test_partial_sums_strictly_increase(self):
        op = op_for(3.0)
        sums = [neumann_partial_sum(op, 0.5, t) for t in range(1, 12)]
        assert np.all(np.diff(sums) > 0.0)

    def test_converges_to_resolvent_from_below(self):
        op = op_for(10.0)
        stats = mean_frames(op, 0.5)
        lam, _, _ = spectral_pair(op)
        terms = int(np.ceil(20.0 / (1.0 - lam)))
        partial = neumann_partial_sum(op, 0.5, terms)
        assert partial < stats.M
        assert abs(partial - stats.M) < 1e-8 * max(1.0, stats.M)

    def test_tail_corrected_series_equivalence(self):
        # partial sum + geometric tail estimate matches the direct solve
        op = op_for(10.0)
        stats = mean_frames(op, 0.5)
        lam, _, _ = spectral_pair(op)
        terms = int(np.ceil(10.0 / (1.0 - lam)))
        partial = neumann_partial_sum(op, 0.5, terms)
        s_t = survival_sequence(op, 0.5, terms).values[terms]
        corrected = partial + s_t * lam / (1.0 - lam)
        assert abs(corrected - stats.M) < 1e-6 * stats.M

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            neumann_partial_sum(op_for(2.0), 0.5, 0)


class TestExitStats:
    def test_combined_record(self):
        stats = exit_stats(op_for(8.0), 0.5)
        assert stats.mean_tau == 1.0 + stats.M
        assert stats.gap == pytest.approx(1.0 - stats.lambda0)
        assert 0.0 < stats.lambda0 < 1.0
        assert stats.a0_est > 0.0


class TestSharedOperatorConcurrency:
    def test_parallel_solves_match_serial(self):
        # a built operator is immutable; concurrent solves on it must agree
        # with the serial answers exactly
        from concurrent.futures import ThreadPoolExecutor

        op = op_for(15.0)
        y0s = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] * 4
        serial = [mean_frames(op, y0).M for y0 in y0s]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda y0: mean_frames(op, y0).M, y0s))
        assert parallel == serial
        assert not op.band.flags.writeable
