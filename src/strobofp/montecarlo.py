"""Stochastic-trajectory oracle for the frame-counted exit time.

Each trial walks X <- X + sqrt(v) * xi with xi standard normal and v
drawn from the frame-interval law (v = 1 for deterministic frames), and
records the first frame index at which X leaves (0, rho).  X = rho x is the
position in units of one frame's rms step, so a frame adds the raw step and
divides by nothing; a trial starts at X = rho y0.  Trials run in chunks of
CHUNK: chunk c holds trials [c*CHUNK, (c+1)*CHUNK) and draws from
Generator(SFC64(SeedSequence(seed, spawn_key=(c,)))), the c-th child of
SeedSequence(seed); SFC64 is NumPy's fastest bit generator for these draws.
The spawn key is mixed in after the seed's entropy is padded to the pool,
so no two (seed, c) share a stream, which SeedSequence([seed, c]) does not
promise: [2**32, 0] and [0, 1] concatenate to the same 32-bit words.  On
each frame the chunk fills its steps with mu.sample_steps(gen, steps), all
draws in trial order: deterministic frames draw n_alive normals; two-point
and jitter frames draw n_alive normals, then n_alive intervals, and multiply
by sqrt(v); exponential frames draw n_alive uniforms and map each through
the inverse CDF of the Laplace law of sqrt(v) xi.  A frame of a full chunk
costs about 6 ns per live trial for exponential frames, 11-12 ns for
deterministic, 15-16 ns for jitter and 19-21 ns for two-point frames, most
of it the draws; a whole run, with its exits and short late frames,
averages 8-21, 14-27, 19-42 and 26-51 ns per trial-frame (one thread,
2 vCPUs, NumPy 2.4).  A trial leaves the positions array on the frame it
exits.  A chunk keeps only those positions and how many trials exit on
each frame; chunks run through `_threads.parallel_map`, the one worker
pool, and are summed as they arrive, so memory is O(CHUNK + largest tau)
per worker whatever n_trials is.  Results are bit-identical for any worker
count or scheduling order, but a k-trial run is not a prefix of a longer
one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from . import asymptotics
from ._threads import parallel_map
from .operator_core import FrameDistribution, ProblemSpec, build_averaged_operator
from .resolvent import mean_frames

# Trials per random stream; part of the stream layout, so changing it
# changes every seeded result.
CHUNK = 65_536
# Most frames a run may simulate, counted as n_trials * (1 + rho^2), the
# scale of _hard_cap: one and a half to nine minutes at the 8-51 ns per
# trial-frame of the four frame laws (one thread, 2 vCPUs).
FRAME_BUDGET = 1e10


def _check_run(rho: float, n_trials: int, seed: int) -> None:
    """Refuse a seed outside [0, 2^64), a run of no trials, or one whose
    n_trials * (1 + rho^2) exceeds FRAME_BUDGET."""
    if not 0 <= seed < 2**64:
        # the documented --seed range; SeedSequence itself would take any
        # non-negative integer
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

    def summary_dict(self) -> dict:
        """Every field but the histogram."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "histogram"}


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

    def run_chunk(c: int) -> tuple[list[int], int]:
        """Exit counts of chunk c per frame, its trials moved together a
        frame at a time, and the number still inside after n_cap frames."""
        gen = Generator(SFC64(SeedSequence(seed, spawn_key=(c,))))
        k = min(CHUNK, n_trials - c * CHUNK)
        x = np.full(k, float(y0) * rho)
        steps, inside, below = np.empty(k), np.empty(k, dtype=bool), np.empty(k, dtype=bool)
        exits = []
        for _ in range(n_cap):
            mu.sample_steps(gen, steps)
            x += steps
            np.greater(x, 0.0, out=inside)
            inside &= np.less(x, rho, out=below)
            stay = int(np.count_nonzero(inside))
            exits.append(k - stay)
            if stay < k:
                x, k = x[inside], stay
                if not k:
                    break
                steps, inside, below = steps[:k], inside[:k], below[:k]
        return exits, k

    counts, overflow = np.zeros(0, dtype=np.int64), 0
    for exits, stay in parallel_map(run_chunk, range(n_chunks)):
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


def write_histogram_csv(result: MCResult, path: str) -> None:
    """The (tau, count) rows of the histogram, zero-count bins omitted."""
    with open(path, "w", newline="") as fh:
        fh.write("tau,count\n")
        for k in np.flatnonzero(result.histogram):
            fh.write(f"{k + 1},{result.histogram[k]}\n")


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
    exact_mean_tau: float | None = None


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
    pass mark.  Exponential frames have the exact mean
    `asymptotics.exponential_mean_tau`, which the report carries as
    `exact_mean_tau` and the z-score tests against: the grid's mean lies
    1.4e-4 relative below it at rho = 10, y0 = 1/2, about 1.7 standard
    errors of the largest run FRAME_BUDGET admits.  The grid's mean is
    solved on the grid and band cutoff of `spec` before the simulation
    runs, so a failing solve costs no trials, and a seed outside [0, 2^64),
    a run of no trials or one over FRAME_BUDGET is refused before either.
    """
    _check_run(spec.rho, n_trials, seed)
    resolvent_mean_tau = mean_frames(build_averaged_operator(spec, mu), spec.y0).mean_tau
    exact = None
    if mu.kind == "exponential":
        exact = asymptotics.exponential_mean_tau(spec.rho, spec.y0)
    mc = simulate_tau(spec.rho, spec.y0, n_trials, seed, mu=mu)
    z, passed = z_test(mc.mean_tau, mc.std_error,
                       resolvent_mean_tau if exact is None else exact)
    return SelfAveragingReport(
        rho=spec.rho,
        y0=spec.y0,
        distribution=mu.describe(),
        mc=mc,
        resolvent_mean_tau=resolvent_mean_tau,
        z_score=z,
        passed=passed,
        exact_mean_tau=exact,
    )
