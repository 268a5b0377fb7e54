"""Survival sequences, mean exit frames via the resolvent, leading spectral pair.

Everything here consumes an immutable `StroboOperator`.  The expected number
of frames beyond the first, M = sum_{n>=1} S_n = w . (I - K)^{-1} h, is
obtained from a banded symmetric positive-definite solve rather than by
summing the series.  K is symmetric, so M(y0) = h(y0) . u with
u = (I - K)^{-1} w: one cached solve per operator serves every start point.
Solves meet a normwise backward-error contract (`_resolvent_solve`).
`neumann_partial_sum` provides the series route as a consistency check, and
`spectral_pair` the geometric decay rate by inverse iteration on the same
Cholesky factor, stopped by ||K v - lambda0 v||_2 <= EIGEN_TOL * lambda0.

Both routes solve on the mirror-even half of the grid.  The interval is
symmetric, so the Toeplitz matrix K commutes with the reflection
(J x)_i = x_{N-1-i} and the weights w are mirror-even, so u and the leading
eigenvector are even.  On even vectors, I - K folds into a banded block of
ceil(N/2) unknowns (Cantoni & Butler, Linear Algebra Appl. 13, 1976), which
`_factorization` factors once per operator; every Cholesky factor, solve
and eigen step works there.

Exponential frames have the geometric band s r^d, whose untruncated
Toeplitz matrix has a tridiagonal inverse; when the omitted tail is at most
LAPLACE_TAIL_TOL, every solve goes through it in O(N) (`_laplace_route`),
with one refinement step against the truncated band always taken.  Lower
cutoffs and coarse grids keep the banded route.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, LinAlgError

from .errors import ConvergenceError, SolverError
from .operator_core import StroboOperator, averaged_kernel, laplace_band

# Contractual bound on the normwise backward error of a resolvent solve,
# ||b - (I-K)x||_inf / (||I-K||_inf ||x||_inf + ||b||_inf).
RESIDUAL_TOL = 8.0 * np.finfo(float).eps
# Contractual bound on ||K v - lambda v||_2 / lambda for the unit eigenvector
# returned by spectral_pair, and the step cap of its inverse iteration.
EIGEN_TOL = 1e-13
EIGEN_MAX_ITER = 100
# Largest omitted band tail ||K_untruncated - K||_inf for which exponential
# frames are solved through the tridiagonal inverse of the untruncated band.
LAPLACE_TAIL_TOL = 2.0 * np.finfo(float).eps

_factor_cache: "weakref.WeakKeyDictionary[StroboOperator, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)
_weight_resolvent_cache: "weakref.WeakKeyDictionary[StroboOperator, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class SurvivalSeries:
    """Survival probabilities S_0..S_nmax for one start point."""

    rho: float
    y0: float
    values: np.ndarray


@dataclass(frozen=True)
class ExitStats:
    """Mean frame counts and, when computed, the leading spectral data."""

    M: float
    mean_tau: float
    lambda0: float | None = None
    a0_est: float | None = None
    gap: float | None = None


def initial_vector(op: StroboOperator, y0: float) -> np.ndarray:
    """Kernel profile h_i = k(y_i - y0): the one-step image of a start at y0.

    The same `averaged_kernel` as the operator's band: under the exponential
    law the entries are cell means of the kernel, so that the quadrature
    weights reproduce S_1 exactly.
    """
    if not 0.0 <= y0 <= 1.0:
        raise ValueError(f"y0 must lie in [0, 1], got {y0}")
    return averaged_kernel(op.grid - y0, op.rho, op.law, 1.0 / op.n)


def survival_sequence(op: StroboOperator, y0: float, n_max: int) -> SurvivalSeries:
    """S_0 = 1 and S_n = w . K^{n-1} h for n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    values = np.empty(n_max + 1)
    values[0] = 1.0
    vec = initial_vector(op, y0)
    for n in range(1, n_max + 1):
        values[n] = op.weights @ vec
        if n < n_max:
            vec = op.matvec(vec)
    return SurvivalSeries(rho=op.rho, y0=y0, values=values)


def _laplace_route(op: StroboOperator):
    """(alpha, r, s q) when I - K is solved through the tridiagonal inverse, else None.

    Exponential frames give band[d] = s r^d (`laplace_band`), so up to the
    omitted tail I - K = alpha I - s R with alpha = 1 - band[0] + s and
    R_ij = r^{|i-j|}.  R^{-1} = T/q with q = 1 - r^2 and
    T = tridiag(-r, 1 + r^2, -r) but 1 in both corners (Kac, Murdock &
    Szego, J. Rational Mech. Anal. 2, 1953), hence
    (I - K)^{-1} b = (b + s q B^{-1} b)/alpha with the tridiagonal SPD
    B = alpha T - s q I.  Taken when the omitted tail
    ||K_untruncated - K||_inf = 2 s r^{bw+1}/(1 - r) is at most LAPLACE_TAIL_TOL.
    """
    if op.law.kind != "exponential":
        return None
    s, r = laplace_band(op)
    bw = op.bandwidth
    if bw < op.n - 1 and 2.0 * s * r ** (bw + 1) / (1.0 - r) > LAPLACE_TAIL_TOL:
        return None
    # q from the rounded r that T holds: 1 - r is exact for r >= 1/2
    return 1.0 - op.band[0] + s, r, s * (1.0 - r) * (1.0 + r)


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


def _factorization(op: StroboOperator) -> np.ndarray:
    """Cholesky factor of the mirror-even block of I - K, cached per operator.

    For a mirror-even x, (A x)_i with i < m = ceil(N/2) is sum_j G_ij x_j
    over j < m, with G_ij = A_ij + A_{i,N-1-j}: for the symmetric Toeplitz
    A = I - K, the Toeplitz band plus a Hankel fold near the middle, `band`
    being zero beyond the bandwidth.  For odd N the middle node is its own
    mirror, so G counts its column twice; with E = I except for a 2 at that
    node, A x = h on the even subspace becomes G z = h[:m] with x[:m] = E z.
    G is symmetric, and E^{-1/2} G E^{-1/2} is A in an orthonormal basis of
    even vectors, so it is positive definite whenever A is.  The factor is
    in upper banded storage with bandwidth min(bw, m - 1): half the unknowns
    of the full matrix at the same band.
    On the Laplace route (`_laplace_route`) A is the tridiagonal B instead,
    and the factor has bandwidth 1.
    """
    cached = _factor_cache.get(op)
    if cached is not None:
        return cached
    bw, n = op.bandwidth, op.n
    m = (n + 1) // 2
    route = _laplace_route(op)
    b = 1 if route is not None else min(bw, m - 1)
    # the banded storage and the factor LAPACK returns beside it
    need = 2 * 8.0 * (b + 1) * m
    if need > _physical_memory():
        raise MemoryError(
            f"the Cholesky factor of N={n}, bandwidth {b} needs {need / 2**30:.3g} GiB, "
            f"more than the physical memory"
        )
    if route is not None:
        # G_ij = B_ij + B_{i,N-1-j}: the Toeplitz rows of B, alpha r^2 less
        # at its corner, and the fold at the middle (doubled for odd N)
        alpha, r, sq = route
        ab = np.empty((2, m))
        ab[0] = -alpha * r
        ab[1] = alpha * (1.0 + r * r) - sq
        ab[1, 0] = alpha - sq
        if n % 2:
            ab[:, -1] *= 2.0
        else:
            ab[1, -1] -= alpha * r
    else:
        # Row b - d of the upper banded storage holds entry (j - d, j) in
        # column j: the Toeplitz -band[d], less the mirror term
        # band[N-1-(j-d)-j], which lies inside the band only in the last
        # columns, j >= (N - bw) // 2.
        ab = np.empty((b + 1, m))
        ab[:] = -op.band[b::-1, None]
        c0 = max(0, (n - bw) // 2)
        mirror = n - 1 + np.arange(b, -1, -1)[:, None] - 2 * np.arange(c0, m)
        ab[:, c0:] -= np.where(mirror <= bw, op.band[np.minimum(mirror, bw)], 0.0)
        ab[b, :] += 1.0
        if n % 2:
            ab[b, -1] += 1.0
    try:
        factor = cholesky_banded(ab)
    except LinAlgError as exc:
        raise SolverError(
            "(I - K) is not positive definite; the operator exceeds unit "
            "spectral radius, which signals a construction bug"
        ) from exc
    _factor_cache[op] = factor
    return factor


def _even_solve(op: StroboOperator, factor: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Mirror-even x with (I - K) x = (vec + J vec)/2, on the half-size factor."""
    m = factor.shape[1]
    even = 0.5 * (vec[:m] + vec[::-1][:m])
    z = cho_solve_banded((factor, False), even)
    if op.n % 2:
        z[-1] *= 2.0
    route = _laplace_route(op)
    if route is not None:
        # (b + s q B^{-1} b)/alpha; never B^{-1} T b, which loses two digits
        alpha, _, sq = route
        z = (even + sq * z) / alpha
    return np.concatenate([z, z[op.n - m - 1 :: -1]])


def _resolvent_solve(op: StroboOperator, rhs: np.ndarray) -> np.ndarray:
    """x = (I - K)^{-1} rhs with normwise backward error at most RESIDUAL_TOL.

    ||rhs - (I - K) x||_inf <= RESIDUAL_TOL (||I - K||_inf ||x||_inf + ||rhs||_inf)
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 7.1), with
    ||I - K||_inf taken as 1 - band[0] + 2 sum(band[1:]): exact once N > 2 bw,
    and at most 2.  The residual is always that of the truncated band,
    `op.matvec`.  One refinement step runs if the solve misses the bound,
    and always on the Laplace route, whose first solve inverts the
    untruncated geometric band and lands at a few tens of eps.
    x is even, so an rhs whose odd part exceeds the bound is rejected with
    ValueError: no solve removes that part of the residual.
    """
    factor = _factorization(op)
    norm = 1.0 - op.band[0] + 2.0 * op.band[1:].sum()
    x = _even_solve(op, factor, rhs)
    bound = RESIDUAL_TOL * (norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    odd = np.max(np.abs(rhs - rhs[::-1])) / 2.0
    if odd > bound:
        raise ValueError(
            f"resolvent right-hand side is not mirror-even: its odd part "
            f"{odd:.3e} exceeds the backward-error bound {bound:.3e}"
        )
    residual = rhs - (x - op.matvec(x))
    if _laplace_route(op) is not None or np.max(np.abs(residual)) > bound:
        x = x + _even_solve(op, factor, residual)
        residual = rhs - (x - op.matvec(x))
        bound = RESIDUAL_TOL * (norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    if np.max(np.abs(residual)) > bound:
        raise SolverError(
            f"resolvent residual {np.max(np.abs(residual)):.3e} exceeds the "
            f"backward-error bound {bound:.3e} after refinement"
        )
    return x


def _weight_resolvent(op: StroboOperator) -> np.ndarray:
    """u = (I - K)^{-1} w, solved once per operator and cached."""
    u = _weight_resolvent_cache.get(op)
    if u is None:
        u = _resolvent_solve(op, op.weights)
        u.setflags(write=False)
        _weight_resolvent_cache[op] = u
    return u


def mean_frames(op: StroboOperator, y0: float) -> ExitStats:
    """Mean frames beyond the first and E[tau] = 1 + M, for a start at y0.

    M = w . (I - K)^{-1} h(y0) = h(y0) . u, since K is symmetric, with the
    cached u = (I - K)^{-1} w: every start point after the first costs one
    kernel profile and one dot product.
    """
    M = float(initial_vector(op, y0) @ _weight_resolvent(op))
    return ExitStats(M=M, mean_tau=1.0 + M)


def spectral_pair(op: StroboOperator, y0: float = 0.5):
    """Leading eigenvalue, eigenvector and overlap amplitude of K.

    Inverse iteration with (I - K)^{-1} K on the cached Cholesky factor of
    the mirror-even block, started from the half-sine profile (the
    wide-kernel limit mode); the leading mode is even, and so is every
    iterate after the first solve.  Its eigenvalues lambda/(1 - lambda)
    separate the leading mode at every rho, so a few steps suffice.  Stops
    once ||K v - lambda v||_2 <= EIGEN_TOL * lambda for the unit vector v
    and its Rayleigh quotient lambda.
    `a0_est` is normalized so that S_n ~ a0_est * lambda0^n for large n with
    the start point `y0`.
    """
    factor = _factorization(op)
    vec = np.sin(np.pi * op.grid)
    vec /= np.linalg.norm(vec)
    for _ in range(EIGEN_MAX_ITER):
        image = op.matvec(vec)
        lam = float(vec @ image)
        if np.linalg.norm(image - lam * vec) <= EIGEN_TOL * lam:
            break
        vec = _even_solve(op, factor, image)
        vec /= np.linalg.norm(vec)
    else:
        raise ConvergenceError(
            f"inverse iteration missed the eigen residual {EIGEN_TOL:.0e} "
            f"within {EIGEN_MAX_ITER} steps (rho={op.rho})"
        )
    if not 0.0 < lam < 1.0:
        raise SolverError(f"leading eigenvalue {lam} outside (0, 1)")
    if vec.sum() < 0.0:
        vec = -vec
    h = initial_vector(op, y0)
    # ||vec|| == 1, so the mode expansion of S_n gives this overlap amplitude.
    a0_est = float((op.weights @ vec) * (vec @ h) / lam)
    return lam, vec, a0_est


def neumann_partial_sum(op: StroboOperator, y0: float, terms: int) -> float:
    """Partial series sum_{n=1}^{terms} S_n; increases monotonically to M."""
    return float(survival_sequence(op, y0, terms).values[1:].sum())


def exit_stats(op: StroboOperator, y0: float) -> ExitStats:
    """Resolvent mean combined with the spectral pair in one record."""
    base = mean_frames(op, y0)
    lam, _, a0 = spectral_pair(op, y0=y0)
    return ExitStats(
        M=base.M, mean_tau=base.mean_tau, lambda0=lam, a0_est=a0, gap=1.0 - lam
    )

