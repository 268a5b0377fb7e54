"""Stochastic-trajectory oracle for the frame-counted exit time.

Each trial walks x <- x + sqrt(v) * xi / rho with xi standard normal and v
drawn from the frame-interval law (v = 1 for deterministic frames), and
records the first frame index at which x leaves (0, 1).  Trials run in
chunks of CHUNK: chunk c holds trials [c*CHUNK, (c+1)*CHUNK) and draws from
the counter-based stream Generator(Philox(key=[seed, c])).  On each frame
the chunk draws standard_normal(n_alive), then, for random frame intervals,
mu.sample_intervals(gen, n_alive), both in trial order; a trial leaves the
positions array on the frame it exits.  A chunk keeps only those positions
and how many trials exit on each frame, so memory is O(CHUNK + largest tau)
per worker whatever n_trials is.  Results are bit-identical for any worker
count or scheduling order, but a k-trial run is not a prefix of a longer
one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from ._threads import worker_count
from .operator_core import FrameDistribution, ProblemSpec, build_averaged_operator
from .resolvent import mean_frames

# Trials per random stream; part of the stream layout, so changing it
# changes every seeded result.
CHUNK = 65_536
# Most frames a run may simulate, counted as n_trials * (1 + rho^2), the
# scale of _hard_cap: five to eight minutes at the 30-50 ns per trial-frame
# of the benchmark's mc commands (2 CPUs).
FRAME_BUDGET = 1e10


def _check_run(rho: float, n_trials: int, seed: int) -> None:
    """Refuse a seed outside [0, 2^64), a run of no trials, or one whose
    n_trials * (1 + rho^2) exceeds FRAME_BUDGET."""
    if not 0 <= seed < 2**64:
        # the seed is the first word of each chunk's uint64 Philox key
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    frames = n_trials * (1.0 + rho * rho)
    if not frames <= FRAME_BUDGET:
        raise ValueError(
            f"{n_trials} trials at rho={rho:g} scale to {frames:.3g} frames "
            f"(n_trials * (1 + rho^2)), over the budget of {FRAME_BUDGET:.0e}"
        )


def _hard_cap(rho: float) -> int:
    # Far beyond any realistic tau: P(tau > cap) ~ exp(-O(1000)).
    return int(1000.0 * (1.0 + rho * rho))


@dataclass(frozen=True)
class MCResult:
    """Trial aggregate; the histogram is the sufficient statistic.

    `histogram[k]` counts trials with tau = k + 1, trimmed at the largest
    observed tau (the untrimmed range runs to n_cap).  Trials that exceeded
    `n_cap` are counted in `overflow` and excluded from the moments, never
    silently truncated into them.
    """

    mean_tau: float
    std_error: float
    n_trials: int
    seed: int
    histogram: np.ndarray
    n_cap: int
    overflow: int = 0

    @property
    def truncated(self) -> bool:
        return self.overflow > 0

    def summary_dict(self) -> dict:
        return {
            "mean_tau": self.mean_tau,
            "std_error": self.std_error,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "n_cap": self.n_cap,
            "overflow": self.overflow,
        }


def simulate_tau(
    rho: float,
    y0: float,
    n_trials: int,
    seed: int,
    mu: FrameDistribution | None = None,
) -> MCResult:
    """Estimate E[tau] by independent trials with chunk-keyed random streams.

    Each chunk's stream depends only on (seed, chunk index), so the result
    is reproducible bit for bit for any worker count (the STROBOFP_THREADS
    environment variable, else one per CPU).
    """
    if not (rho > 0.0 and np.isfinite(rho * rho)):
        # rho^2 sets the frame cap, so it must be finite as well
        raise ValueError(f"rho must be positive with a finite square, got {rho}")
    if not 0.0 <= y0 <= 1.0:
        raise ValueError(f"y0 must lie in [0, 1], got {y0}")
    _check_run(rho, n_trials, seed)
    if mu is None:
        mu = FrameDistribution.deterministic()
    n_cap = _hard_cap(rho)
    n_chunks = -(-n_trials // CHUNK)
    deterministic = mu.kind == "deterministic"

    def run_chunk(c: int) -> tuple[list[int], int]:
        """Exit counts of chunk c per frame, its trials moved together a
        frame at a time, and the number still inside after n_cap frames."""
        gen = Generator(Philox(key=np.array([seed, c], dtype=np.uint64)))
        k = min(CHUNK, n_trials - c * CHUNK)
        x = np.full(k, float(y0))
        steps, inside, below = np.empty(k), np.empty(k, dtype=bool), np.empty(k, dtype=bool)
        exits = []
        for _ in range(n_cap):
            gen.standard_normal(out=steps)
            if not deterministic:
                v = mu.sample_intervals(gen, k)
                steps *= np.sqrt(v, out=v)
            np.divide(steps, rho, out=steps)
            x += steps
            np.greater(x, 0.0, out=inside)
            inside &= np.less(x, 1.0, out=below)
            stay = int(np.count_nonzero(inside))
            exits.append(k - stay)
            if stay < k:
                x, k = x[inside], stay
                if not k:
                    break
                steps, inside, below = steps[:k], inside[:k], below[:k]
        return exits, k

    counts, overflow = np.zeros(0, dtype=np.int64), 0
    with ThreadPoolExecutor(max_workers=worker_count(n_chunks)) as pool:
        # summed as they arrive, so memory does not grow with the chunk count
        for exits, stay in pool.map(run_chunk, range(n_chunks)):
            if len(exits) > counts.size:
                counts = np.pad(counts, (0, len(exits) - counts.size))
            counts[:len(exits)] += exits
            overflow += stay
    histogram = np.trim_zeros(counts, "b")
    completed = n_trials - overflow
    mean_tau = std_error = float("nan")
    if completed:
        taus = np.arange(1, histogram.size + 1)
        # the integer sum is exact, so the mean is rounded once
        mean_tau = int(histogram @ taus) / completed
        if completed > 1:
            var = float(histogram @ (taus - mean_tau) ** 2) / (completed - 1)
            std_error = float(np.sqrt(var) / np.sqrt(completed))
    return MCResult(
        mean_tau=mean_tau,
        std_error=std_error,
        n_trials=n_trials,
        seed=seed,
        histogram=histogram,
        n_cap=n_cap,
        overflow=overflow,
    )


def z_test(mean_tau: float, std_error: float, reference: float) -> tuple[float | None, bool]:
    """(z-score, passed) of a Monte Carlo mean against a reference at 3 sigma.

    With a zero or NaN standard error there is nothing to scale by: the
    z-score is None and the test fails.
    """
    if not std_error > 0.0:
        return None, False
    z = float((mean_tau - reference) / std_error)
    return z, abs(z) < 3.0


def histogram_rows(result: MCResult):
    """(tau, count) pairs with zero-count bins omitted."""
    for k, count in enumerate(result.histogram, start=1):
        if count:
            yield k, int(count)


def write_histogram_csv(result: MCResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("tau,count\n")
        for k, count in histogram_rows(result):
            fh.write(f"{k},{count}\n")


@dataclass(frozen=True)
class SelfAveragingReport:
    """Monte Carlo under a frame-interval law vs the averaged-operator mean."""

    rho: float
    y0: float
    distribution: str
    mc: MCResult
    resolvent_mean_tau: float
    z_score: float | None
    passed: bool


def self_averaging_check(
    spec: ProblemSpec,
    mu: FrameDistribution,
    n_trials: int,
    seed: int,
) -> SelfAveragingReport:
    """Compare trial-wise intervals against the averaged operator on `spec`.

    For i.i.d. intervals the ensemble mean of tau must match the resolvent
    of the interval-averaged operator (for deterministic frames, the plain
    operator); the report carries both values and a z-score with a 3-sigma
    pass mark.  The reference is solved on the grid and band cutoff of
    `spec` before the simulation runs, so a failing solve costs no trials,
    and a seed outside [0, 2^64), a run of no trials or one over
    FRAME_BUDGET is refused before either.
    """
    _check_run(spec.rho, n_trials, seed)
    reference = mean_frames(build_averaged_operator(spec, mu), spec.y0).mean_tau
    mc = simulate_tau(spec.rho, spec.y0, n_trials, seed, mu=mu)
    z, passed = z_test(mc.mean_tau, mc.std_error, reference)
    return SelfAveragingReport(
        rho=spec.rho,
        y0=spec.y0,
        distribution=mu.describe(),
        mc=mc,
        resolvent_mean_tau=reference,
        z_score=z,
        passed=passed,
    )
