"""Stochastic-trajectory oracle for the frame-counted exit time.

Each trial walks x <- x + sqrt(v) * xi / rho with xi standard normal and v
drawn from the frame-interval law (v = 1 for deterministic frames), and
records the first frame index at which x leaves (0, 1).  Trials run in
chunks of CHUNK: chunk c holds trials [c*CHUNK, (c+1)*CHUNK) and draws from
the counter-based stream Generator(Philox(key=[seed, c])).  On each frame
the chunk draws standard_normal(n_alive), then, for random frame intervals,
mu.sample_intervals(gen, n_alive); a trial leaves the arrays on the frame
it exits.  Results are bit-identical for any worker count or scheduling
order, but a k-trial run is not a prefix of a longer one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from ._threads import worker_count
from .operator_core import FrameDistribution, ProblemSpec, build_averaged_operator
from .resolvent import mean_frames

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
# Trials per random stream; part of the stream layout, so changing it
# changes every seeded result.
CHUNK = 65_536
# Most frames a run may simulate, counted as n_trials * (1 + rho^2), the
# scale of _hard_cap: about ten minutes at 50-130 ns per frame.
FRAME_BUDGET = 1e10


def _check_frame_budget(rho: float, n_trials: int) -> None:
    """Refuse a run of no trials, or one whose n_trials * (1 + rho^2) exceeds FRAME_BUDGET."""
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
    _check_frame_budget(rho, n_trials)
    if mu is None:
        mu = FrameDistribution.deterministic()
    n_cap = _hard_cap(rho)
    n_chunks = -(-n_trials // CHUNK)
    deterministic = mu.kind == "deterministic"

    def run_chunk(c: int) -> np.ndarray:
        """Taus of chunk c, its trials moved together a frame at a time;
        trials still inside after n_cap frames keep tau = 0."""
        key = np.array([seed & _UINT64_MASK, c], dtype=np.uint64)
        gen = Generator(Philox(key=key))
        n = min(CHUNK, n_trials - c * CHUNK)
        taus = np.zeros(n, dtype=np.int64)
        alive = np.arange(n)
        x = np.full(n, float(y0))
        for frame in range(1, n_cap + 1):
            steps = gen.standard_normal(alive.size)
            if not deterministic:
                steps *= np.sqrt(mu.sample_intervals(gen, alive.size))
            x += steps / rho
            inside = (x > 0.0) & (x < 1.0)
            if not inside.all():
                taus[alive[~inside]] = frame
                alive, x = alive[inside], x[inside]
                if not alive.size:
                    break
        return taus

    with ThreadPoolExecutor(max_workers=worker_count(n_chunks)) as pool:
        taus = np.concatenate(list(pool.map(run_chunk, range(n_chunks))))

    overflow = int(np.count_nonzero(taus == 0))
    completed = taus[taus > 0]
    if completed.size:
        mean_tau = float(completed.mean())
        std_error = (
            float(completed.std(ddof=1) / np.sqrt(completed.size))
            if completed.size > 1
            else float("nan")
        )
        histogram = np.bincount(completed)[1:]
    else:
        mean_tau = float("nan")
        std_error = float("nan")
        histogram = np.zeros(0, dtype=np.int64)
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
    and a run of no trials or over FRAME_BUDGET is refused before either.
    """
    _check_frame_budget(spec.rho, n_trials)
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
