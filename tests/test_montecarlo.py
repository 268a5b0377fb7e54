"""Monte Carlo oracle: reproducibility, distributional sanity, aggregation."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

import strobofp.montecarlo as mc_mod
from strobofp import (
    FrameDistribution,
    ProblemSpec,
    build_operator,
    mean_frames,
    self_averaging_check,
    simulate_tau,
    spectral_pair,
    write_histogram_csv,
)


class TestReproducibility:
    def test_bit_identical_across_worker_counts(self):
        # the second case spans three chunks, so chunk scheduling matters
        cases = [(5.0, 0.5, 3000, 99), (2.0, 0.5, 2 * mc_mod.CHUNK + 1000, 99)]
        for rho, y0, n_trials, seed in cases:
            results = [
                simulate_tau(rho, y0, n_trials, seed=seed, n_workers=w)
                for w in (1, 2, 3)
            ]
            base = results[0]
            for other in results[1:]:
                assert np.array_equal(base.histogram, other.histogram)
                assert base.mean_tau == other.mean_tau
                assert base.std_error == other.std_error
                assert base.overflow == other.overflow

    def test_same_seed_same_result(self):
        a = simulate_tau(3.0, 0.4, 1000, seed=7)
        b = simulate_tau(3.0, 0.4, 1000, seed=7)
        assert np.array_equal(a.histogram, b.histogram)

    def test_different_seed_differs(self):
        a = simulate_tau(3.0, 0.4, 1000, seed=7)
        b = simulate_tau(3.0, 0.4, 1000, seed=8)
        assert not np.array_equal(a.histogram, b.histogram)

    def test_env_variable_controls_workers(self, monkeypatch):
        monkeypatch.setenv("STROBOFP_THREADS", "2")
        a = simulate_tau(3.0, 0.5, 1500, seed=11)
        monkeypatch.delenv("STROBOFP_THREADS")
        b = simulate_tau(3.0, 0.5, 1500, seed=11, n_workers=1)
        assert np.array_equal(a.histogram, b.histogram)


class TestStatistics:
    def test_wide_kernel_exits_first_frame(self):
        result = simulate_tau(0.01, 0.5, 10_000, seed=1)
        assert result.mean_tau == pytest.approx(1.0, abs=0.01)

    def test_first_frame_exit_probability(self):
        rho, y0, n = 3.0, 0.3, 200_000
        result = simulate_tau(rho, y0, n, seed=12345)
        p1 = 1.0 - (ndtr(rho * (1.0 - y0)) - ndtr(-rho * y0))
        observed = result.histogram[0] / n
        sigma = math.sqrt(p1 * (1.0 - p1) / n)
        assert abs(observed - p1) < 3.0 * sigma

    def test_matches_resolvent_three_sigma(self):
        rho, y0 = 10.0, 0.5
        result = simulate_tau(rho, y0, 30_000, seed=2024)
        reference = mean_frames(build_operator(ProblemSpec(rho=rho)), y0).mean_tau
        z = (result.mean_tau - reference) / result.std_error
        assert abs(z) < 3.0

    def test_boundary_start_matches_resolvent(self):
        # starting on the wall itself: tau >= 1 by construction and the
        # resolvent mean E[tau] ~ rho/sqrt(2) is still reproduced
        result = simulate_tau(5.0, 0.0, 20_000, seed=777)
        reference = mean_frames(build_operator(ProblemSpec(rho=5.0)), 0.0).mean_tau
        z = (result.mean_tau - reference) / result.std_error
        assert abs(z) < 3.0
        assert result.mean_tau >= 1.0

    def test_geometric_tail_rate(self):
        # aggregate tail estimate: for n >> rho^2 the excess of tau beyond n0
        # is geometric with ratio lambda0
        rho, n0, trials = 4.0, 20, 300_000
        result = simulate_tau(rho, 0.5, trials, seed=31415)
        lam, _, _ = spectral_pair(build_operator(ProblemSpec(rho=rho)))
        counts = result.histogram[n0:]
        tail = int(counts.sum())
        assert tail > 30
        excess = float((np.arange(counts.size) * counts).sum()) / tail
        lam_hat = excess / (1.0 + excess)
        sigma = (1.0 - lam) * math.sqrt(lam) / math.sqrt(tail)
        assert abs(lam_hat - lam) < 3.0 * sigma

    def test_histogram_is_sufficient(self):
        result = simulate_tau(5.0, 0.5, 5000, seed=3)
        counts = result.histogram
        n = counts.sum()
        assert n + result.overflow == result.n_trials
        taus = np.arange(1, counts.size + 1, dtype=float)
        mean = float((taus * counts).sum() / n)
        assert mean == pytest.approx(result.mean_tau, rel=1e-12)
        var = float(((taus - mean) ** 2 * counts).sum() / (n - 1))
        assert math.sqrt(var / n) == pytest.approx(result.std_error, rel=1e-9)
        assert result.mean_tau >= 1.0


class TestOverflowPolicy:
    def test_cap_formula(self):
        assert mc_mod._hard_cap(10.0) == 1000 * 101

    def test_overflow_counted_not_averaged(self, monkeypatch):
        # a tiny artificial cap forces overflow; the mean must then exclude
        # the capped trials and flag the truncation
        monkeypatch.setattr(mc_mod, "_hard_cap", lambda rho: 3)
        result = simulate_tau(20.0, 0.5, 400, seed=5)
        assert result.overflow > 0
        assert result.truncated
        assert result.histogram.sum() + result.overflow == 400
        assert result.histogram.size <= 3

    def test_no_overflow_in_contract_range(self):
        # cap is 1000(1+rho^2); observed maxima sit orders of magnitude lower
        big = simulate_tau(2.0, 0.5, 1_000_000, seed=8)
        assert big.overflow == 0
        mid = simulate_tau(30.0, 0.5, 100_000, seed=8)
        assert mid.overflow == 0


class TestFrameBudget:
    def test_over_budget_refused_before_simulating(self, monkeypatch):
        # 10 * (1 + 1e12) frames; the cap is cut to one frame so that a
        # missing check fails here instead of running for days
        monkeypatch.setattr(mc_mod, "_hard_cap", lambda rho: 1)
        with pytest.raises(ValueError, match="budget"):
            simulate_tau(1e6, 0.5, 10, seed=1)

    def test_budget_counts_trials_times_rho_squared(self, monkeypatch):
        monkeypatch.setattr(mc_mod, "FRAME_BUDGET", 100 * (1.0 + 2.0**2))
        assert simulate_tau(2.0, 0.5, 100, seed=1).n_trials == 100
        with pytest.raises(ValueError, match="budget"):
            simulate_tau(2.0, 0.5, 101, seed=1)

    def test_self_averaging_refuses_before_the_reference(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("no operator may be built over the budget")

        monkeypatch.setattr(mc_mod, "build_averaged_operator", fail)
        with pytest.raises(ValueError, match="budget"):
            self_averaging_check(ProblemSpec(rho=1e6), FrameDistribution.deterministic(),
                                 10, seed=1)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(rho=0.0, y0=0.5, n_trials=10, seed=1),
        dict(rho=1.0, y0=1.5, n_trials=10, seed=1),
        dict(rho=1.0, y0=0.5, n_trials=0, seed=1),
    ])
    def test_preconditions(self, kwargs):
        with pytest.raises(ValueError):
            simulate_tau(**kwargs)


class TestSelfAveraging:
    def test_deterministic_reduces_to_plain_check(self):
        report = self_averaging_check(
            ProblemSpec(rho=5.0, y0=0.5), FrameDistribution.deterministic(), 20_000, seed=17
        )
        direct = mean_frames(build_operator(ProblemSpec(rho=5.0)), 0.5).mean_tau
        assert report.resolvent_mean_tau == pytest.approx(direct, rel=1e-14)
        assert report.passed

    def test_random_intervals_consistent(self):
        report = self_averaging_check(
            ProblemSpec(rho=6.0, y0=0.5), FrameDistribution.uniform_jitter(0.5), 30_000, seed=17
        )
        assert abs(report.z_score) < 3.0
        assert report.passed
        assert report.distribution == "jitter:0.5"


class TestHistogramExport:
    def test_csv_round_trip(self, tmp_path):
        result = simulate_tau(4.0, 0.5, 2000, seed=21)
        path = tmp_path / "hist.csv"
        write_histogram_csv(result, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,count"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == result.histogram.sum()
        taus = [int(line.split(",")[0]) for line in lines[1:]]
        assert taus == sorted(taus)
