"""Monte Carlo oracle: reproducibility, distributional sanity, aggregation."""

import concurrent.futures
import math
import os
import tracemalloc

import numpy as np
import pytest

import strobofp.montecarlo as mc_mod
from strobofp import _threads
from strobofp import (
    FrameDistribution,
    ProblemSpec,
    build_operator,
    exponential_mean_tau,
    mean_frames,
    self_averaging_check,
    simulate_tau,
    spectral_pair,
    write_histogram_csv,
)
from normal_cdf import ndtr


class TestReproducibility:
    def test_bit_identical_across_worker_counts(self, monkeypatch):
        # the second case spans three chunks, so chunk scheduling matters
        cases = [(5.0, 0.5, 3000, 99), (2.0, 0.5, 2 * mc_mod.CHUNK + 1000, 99)]
        for rho, y0, n_trials, seed in cases:
            results = []
            for w in ("1", "2", "3"):
                monkeypatch.setenv("STROBOFP_THREADS", w)
                results.append(simulate_tau(rho, y0, n_trials, seed=seed))
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

    # Exact results at the stream layout of the module docstring (SFC64 on
    # child c of SeedSequence(seed) for chunk c, CHUNK trials per chunk,
    # positions in wall units, each frame's draws over the surviving trials
    # in order): deterministic frames draw normals; two-point and jitter
    # frames draw normals, then intervals; exponential frames draw E1, then
    # E2, and step (E1 - E2)/sqrt 2.  Any change to that layout alters every
    # seeded result of the law it touches, and these values with it.
    @pytest.mark.parametrize("kwargs, histogram, mean_tau", [
        (dict(rho=2.0, y0=0.5, n_trials=mc_mod.CHUNK + 1000, seed=11),
         [21227, 17260, 10714, 6581, 4210, 2479, 1536, 961, 615, 365, 242, 132, 79, 58,
          23, 24, 12, 7, 5, 1, 3, 2],
         2.782373451965853),
        (dict(rho=3.0, y0=0.5, n_trials=2000, seed=5, mu=FrameDistribution.exponential()),
         [245, 318, 278, 213, 188, 160, 131, 110, 77, 56, 43, 43, 36, 24, 21, 13, 11, 9, 2,
          6, 4, 2, 3, 0, 3, 0, 1, 2, 0, 0, 0, 1],
         5.3635),
        (dict(rho=3.0, y0=0.3, n_trials=2000, seed=9,
              mu=FrameDistribution.two_point(0.5, 1.5, 0.5)),
         [394, 367, 291, 225, 161, 141, 96, 79, 61, 44, 26, 23, 15, 20, 13, 10, 8, 8, 3, 4,
          5, 0, 3, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
         4.4575),
    ], ids=["deterministic", "exponential", "twopoint"])
    def test_stream_layout_pinned(self, kwargs, histogram, mean_tau):
        result = simulate_tau(**kwargs)
        assert result.histogram.tolist() == histogram
        assert result.mean_tau == mean_tau
        assert result.overflow == 0

    def test_chunk_streams_kept_apart(self):
        # chunk 1 of seed 0 against chunk 0 of seed 2**32: SeedSequence([seed, c])
        # gives both the same 32-bit words, [0, 1], and so the same stream
        k = 1000

        def counts(seed, n_trials):
            histogram = simulate_tau(2.0, 0.5, n_trials, seed=seed).histogram
            return np.pad(histogram, (0, 64 - histogram.size))

        chunk1 = counts(0, mc_mod.CHUNK + k) - counts(0, mc_mod.CHUNK)
        assert chunk1.sum() == k
        assert not np.array_equal(chunk1, counts(2**32, k))

    def test_env_variable_controls_workers(self, monkeypatch):
        # one worker runs the chunks in the caller's thread, with no pool
        seen = []
        pool = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            seen.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        results = []
        for w in ("2", "1"):
            monkeypatch.setenv("STROBOFP_THREADS", w)
            results.append(simulate_tau(3.0, 0.5, mc_mod.CHUNK + 1000, seed=11))
        assert seen == [2]
        assert np.array_equal(results[0].histogram, results[1].histogram)

    def test_chunks_stream_through_the_one_pool(self, monkeypatch):
        assert not hasattr(mc_mod, "ThreadPoolExecutor")
        chunks = []

        def recording(fn, items):
            chunks.append(list(items))
            return _threads.parallel_map(fn, items)

        monkeypatch.setattr(mc_mod, "parallel_map", recording)
        simulate_tau(2.0, 0.5, 2 * mc_mod.CHUNK + 1, seed=3)
        assert chunks == [[0, 1, 2]]


class TestParallelMap:
    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_yields_in_order(self, workers, monkeypatch):
        monkeypatch.setenv("STROBOFP_THREADS", workers)
        assert list(_threads.parallel_map(lambda i: i * i, range(7))) == [
            0, 1, 4, 9, 16, 25, 36]

    def test_serial_computes_nothing_ahead_of_the_consumer(self, monkeypatch):
        monkeypatch.setenv("STROBOFP_THREADS", "1")
        done = []

        def work(i):
            done.append(i)
            return i

        results = _threads.parallel_map(work, range(4))
        assert done == []
        for i, result in enumerate(results):
            assert result == i
            assert done == list(range(i + 1))

    def test_default_counts_the_cpus_this_process_may_use(self, monkeypatch):
        # one CPU allowed on a 64-CPU host: one worker, unless STROBOFP_THREADS asks
        monkeypatch.delenv("STROBOFP_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _threads.worker_count(8) == 1
        monkeypatch.setenv("STROBOFP_THREADS", "3")
        assert _threads.worker_count(8) == 3

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_a_bad_count_names_its_variable(self, value, monkeypatch, capsys):
        from strobofp.cli import main

        monkeypatch.setenv("STROBOFP_THREADS", value)
        message = f"STROBOFP_THREADS must be an integer, got '{value}'"
        with pytest.raises(ValueError, match=message):
            _threads.worker_count(8)
        assert main(["mc", "--rho", "2", "--trials", "1000"]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


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

    @pytest.mark.parametrize("rho, y0, seed", [(10.0, 0.5, 41), (30.0, 0.0, 42), (3.0, 0.2, 43)])
    def test_exponential_frames_match_the_exact_mean(self, rho, y0, seed):
        result = simulate_tau(rho, y0, 20_000, seed=seed, mu=FrameDistribution.exponential())
        z = (result.mean_tau - exponential_mean_tau(rho, y0)) / result.std_error
        assert abs(z) < 4.0
        assert result.overflow == 0

    def test_subnormal_rho_exits_on_the_first_frame(self):
        # positions in wall units: no division by rho, so no overflow warning
        result = simulate_tau(1e-310, 0.5, 10, seed=1)
        assert result.histogram.tolist() == [10]
        assert result.overflow == 0

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
        assert result.histogram.sum() + result.overflow == 400
        assert result.histogram.size <= 3

    def test_every_trial_overflows(self, monkeypatch):
        monkeypatch.setattr(mc_mod, "_hard_cap", lambda rho: 1)
        result = simulate_tau(20.0, 0.5, 400, seed=5)
        assert result.histogram.size == 0
        assert math.isnan(result.mean_tau) and math.isnan(result.std_error)
        assert result.overflow == result.n_trials == 400

    def test_one_completed_trial_has_no_std_error(self, monkeypatch):
        # a one-frame cap, four trials from near a wall: the first seed at
        # which one exits on frame 1 and three overflow (each exits with
        # probability about 0.16, so such a seed lies well within 64)
        monkeypatch.setattr(mc_mod, "_hard_cap", lambda rho: 1)
        runs = (simulate_tau(20.0, 0.05, 4, seed=seed) for seed in range(64))
        result = next((run for run in runs if run.overflow == 3), None)
        assert result is not None
        assert result.histogram.tolist() == [1]
        assert result.mean_tau == 1.0
        assert math.isnan(result.std_error)

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

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_self_averaging_refuses_bad_seed_before_the_reference(self, monkeypatch, seed):
        def fail(*args, **kwargs):
            raise AssertionError("no operator may be built for a bad seed")

        monkeypatch.setattr(mc_mod, "build_averaged_operator", fail)
        with pytest.raises(ValueError, match="seed"):
            self_averaging_check(ProblemSpec(rho=5.0), FrameDistribution.deterministic(),
                                 10, seed=seed)


class TestMemory:
    def test_peak_memory_flat_in_trial_count(self, monkeypatch):
        # one worker keeps O(CHUNK + largest tau) arrays, whatever n_trials is
        monkeypatch.setenv("STROBOFP_THREADS", "1")
        tracemalloc.start()
        try:
            simulate_tau(2.0, 0.5, 10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(rho=0.0, y0=0.5, n_trials=10, seed=1),
        dict(rho=1.0, y0=1.5, n_trials=10, seed=1),
        dict(rho=1.0, y0=0.5, n_trials=0, seed=1),
    ])
    def test_preconditions(self, kwargs):
        with pytest.raises(ValueError):
            simulate_tau(**kwargs)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_outside_uint64_refused(self, seed):
        with pytest.raises(ValueError, match="seed"):
            simulate_tau(2.0, 0.5, 10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_run(self, seed):
        result = simulate_tau(2.0, 0.5, 10, seed=seed)
        assert result.seed == seed
        assert result.histogram.sum() == 10


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
