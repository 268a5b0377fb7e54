"""Survival sequences, mean exit frames via the resolvent, leading spectral pair.

Everything here consumes an immutable `StroboOperator`.  The expected number
of frames beyond the first, M = sum_{n>=1} S_n = w . (I - K)^{-1} h, is
obtained from a symmetric positive-definite solve rather than by summing
the series.  K is symmetric, so M(y0) = h(y0) . u with u = (I - K)^{-1} w:
one cached solve per operator serves every start point.  Solves meet a
normwise backward-error contract (`_resolvent_solve`).
`neumann_partial_sum` provides the series route as a consistency check, and
`spectral_pair` the geometric decay rate, stopped by
||K v - lambda0 v||_2 <= EIGEN_TOL * lambda0.

`survival_sequence` makes one product per frame only up to a switch point
n0, first ceil(rho), and only where n_max > n0 + EIGEN_MAX_ITER.  There
it projects the state x = K^{n0-1} h on k Lanczos vectors and takes
S_{n0+j} = sum_i c_i (w . y_i) theta_i^j from the Ritz pairs: past the
transient S_n is carried by a few leading modes.  The tail is accepted
when the a posteriori bound ||w|| lambda_bar^{j-1} sum_i |c_i| r_i
min(j, d_i), with the Ritz residuals r_i, lambda_bar = theta_max + r_top
and d_i = lambda_bar/(lambda_bar - |theta_i|), is at most
SURVIVAL_TAIL_TOL * S_{n0+j} for every j (`_lanczos_tail`); k grows by
TAIL_CHECK_STEPS up to EIGEN_MAX_ITER.  Otherwise the recursion carries on
from the same state and the next try is at 2 n0.  A sequence of n_max
frames costs about n0 + k products instead of n_max.

Everything that iterates with K works on the mirror-even half of the grid.
The interval is symmetric and the grid and weights of a `StroboOperator`
follow from N alone, so the Toeplitz matrix K commutes with the reflection
(J x)_i = x_{N-1-i} and the weights w are mirror-even: u and the leading
eigenvector are even, and S_n = w . K^{n-1} h depends only on the even
part of h.  An even vector is carried as its first m = ceil(N/2) entries:
a symmetric Toeplitz matrix folds into a banded block of order m (`_fold`;
Cantoni & Butler, Linear Algebra Appl. 13, 1976), and K into
`StroboOperator.even_matvec`, which makes every product of the survival
recursion, of PCG, of its residual check and of LOPCG.  Sums, inner
products and norms over the full grid weight each mirrored pair 2 and the
middle node of odd N 1 (`_multiplicity`); max norms are those of the half.

The solve (`_resolvent_solve`) is preconditioned conjugate gradients, the
eigensolver (`spectral_pair`) LOPCG (Knyazev, SIAM J. Sci. Comput. 23,
2001), both with one preconditioner P chosen once per operator
(`_factorization`).  P is the exponential-frame (Laplace) operator I - K_L
at the same rho and grid wherever the symbol-ratio bound allows it
(`_laplace_route`).  Every law is unit-mean, so every law has the
diffusion scale of P and matches it at low frequency.  P^{-1} has a
closed form: it is cosh(ah/2)^{-1} (I + 4 sinh^2(ah/2) L^{-1}) with L the
second-difference matrix whose Green's function is explicit (Meurant,
SIAM J. Matrix Anal. Appl. 13, 1992), and on the half it takes two
cumulative sums (`_precondition`): O(N) and NumPy only, with no factor.
The ratio of the symbols of I - K and P bounds the condition number of
P^{-1}(I - K) (Chan & Ng, SIAM Rev. 38, 1996): for deterministic frames
it is (1 - e^{-t})(1 + t)/t, in [1, 1.30], and PCG solves in about 11
steps; LOPCG finds the leading pair in about as many.  Exponential
frames, for which P is I - K up to the omitted band tail, take one PCG
step (up to 3 with the band cut at eta = 6); wide two-point mixtures take
more, about 55 at the largest bound admitted, LAPLACE_COND_MAX = 16.
Beyond it (for example twopoint:1e-5,1,0.999, bound 58) the steps would
approach the cap, and P is I - K itself, factored with its band on the
half by SciPy's banded Cholesky, which only these laws import: PCG then
takes one step and LOPCG about as many as inverse iteration.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SolverError
from .operator_core import StroboOperator, averaged_kernel, laplace_band

# Contractual bound on the normwise backward error of a resolvent solve,
# ||b - (I-K)x||_inf / (||I-K||_inf ||x||_inf + ||b||_inf).
RESIDUAL_TOL = 8.0 * np.finfo(float).eps
# Contractual bound on ||K v - lambda v||_2 / lambda for the unit eigenvector
# returned by spectral_pair, and the step cap of its LOPCG and of each PCG solve.
EIGEN_TOL = 1e-13
EIGEN_MAX_ITER = 100
# Largest symbol-ratio bound on cond(P^{-1}(I - K)) for which the Laplace
# preconditioner is used.  CG's bound 2((sqrt k - 1)/(sqrt k + 1))^j asks
# about 0.5 sqrt(k) ln(2/eps) steps, about 70 at k = 16: inside EIGEN_MAX_ITER.
LAPLACE_COND_MAX = 16.0
# Bound on the Krylov truncation error of each survival value taken from the
# Lanczos tail, relative to that value, and the Lanczos steps between checks.
SURVIVAL_TAIL_TOL = 1e-13
TAIL_CHECK_STEPS = 10

# Per operator: the preconditioner's (factor, Laplace coefficients), and u = (I - K)^{-1} w.
_factor_cache = weakref.WeakKeyDictionary()
_weight_resolvent_cache = weakref.WeakKeyDictionary()


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


def _multiplicity(n: int) -> np.ndarray:
    """How often each entry of the even half x[:ceil(n/2)] occurs in the full x.

    2 for every mirrored pair, 1 for the middle node of odd n: sums, dot
    products and norms of even vectors over the full grid are sums over the
    half with these weights.
    """
    mult = np.full((n + 1) // 2, 2.0)
    if n % 2:
        mult[-1] = 1.0
    return mult


def _even_half(vec: np.ndarray) -> np.ndarray:
    """First ceil(N/2) entries of the even part (vec + J vec)/2."""
    m = (vec.size + 1) // 2
    return 0.5 * (vec[:m] + vec[::-1][:m])


def _unfold(half: np.ndarray, n: int) -> np.ndarray:
    """The full mirror-even vector of length n whose first entries are `half`."""
    return np.concatenate([half, half[n - half.size - 1 :: -1]])


def _even_norm(z: np.ndarray, mult: np.ndarray) -> float:
    """Full-grid 2-norm of the mirror-even vector whose half is z.

    Scaled by max|z|: squares of entries below ~1e-154 underflow (rho -> 0
    scales K, and every residual, with rho; late survival states are tiny).
    """
    scale = np.max(np.abs(z))
    if scale == 0.0:
        return 0.0
    z = z / scale
    return scale * math.sqrt(mult @ (z * z))


def survival_sequence(op: StroboOperator, y0: float, n_max: int) -> SurvivalSeries:
    """S_0 = 1 and S_n = w . K^{n-1} h for n = 1..n_max.

    The weights are mirror-even and K commutes with the reflection, so S_n
    depends only on the even part of h, whatever y0: h is folded once into
    the first half of (h + J h)/2, advanced by `StroboOperator.even_matvec`,
    and S_n is taken with weight 2 w_i on each mirrored pair and w_i on the
    middle node of odd N.

    The recursion runs up to a switch point n0, first ceil(rho); there the
    rest of the sequence is tried from k Lanczos steps from the state
    x = K^{n0-1} h (`_lanczos_tail`), k = 10, 20, .. up to EIGEN_MAX_ITER.
    The tail S_{n0+j} = sum_i c_i (w . y_i) theta_i^j is taken when its a
    posteriori bound ||w|| lambda_bar^{j-1} sum_i |c_i| r_i min(j, d_i)
    is at most SURVIVAL_TAIL_TOL * S_{n0+j} at every j; otherwise the
    recursion carries on from the same state and the next try is at 2 n0.  A try is made only while
    n_max > n0 + EIGEN_MAX_ITER, so a sequence too short for the tail to
    pay is the plain recursion, bit for bit, and S_n for n <= ceil(rho)
    always is.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    mult = _multiplicity(op.n)
    weights = op.weights[: mult.size] * mult
    values = np.empty(n_max + 1)
    values[0] = 1.0
    vec = _even_half(initial_vector(op, y0))
    n0 = math.ceil(op.rho)
    for n in range(1, n_max + 1):
        values[n] = weights @ vec
        if n == n_max:
            break
        if n == n0 and n_max > n0 + EIGEN_MAX_ITER:
            if _lanczos_tail(op, vec, weights, values[n0 + 1 :]):
                break
            n0 *= 2
        vec = op.even_matvec(vec)
    return SurvivalSeries(rho=op.rho, y0=y0, values=values)


def _lanczos_tail(op: StroboOperator, x: np.ndarray, weights: np.ndarray,
                  tail: np.ndarray) -> bool:
    """Write S_{n0+j} = w . K^j x for j = 1..tail.size into `tail`; True if the bound holds.

    Lanczos on the half with the inner product of `_multiplicity` and full
    reorthogonalization, from q_1 = x/||x||: K Q_k = Q_k T_k + beta_k q_{k+1} e_k^T
    (Saad, Numerical Methods for Large Eigenvalue Problems, 2011, ch. 6).
    With T_k = U diag(theta) U^T and the Ritz vectors y_i = Q_k u_i,
    x = sum_i c_i y_i exactly, with c_i = ||x|| u_{1,i}, so
    S_{n0+j} = sum_i c_i (w . y_i) theta_i^j up to the residuals
    r_i = ||K y_i - theta_i y_i|| = beta_k |u_{k,i}| (Golub & Meurant,
    Matrices, Moments and Quadrature with Applications, 2010).  K^j y_i -
    theta_i^j y_i telescopes into the terms K^{j-1-l} (K - theta_i) y_i
    theta_i^l, l < j, of norm at most lambda_bar^{j-1-l} |theta_i|^l r_i,
    so with lambda_bar >= ||K||
        |error_j| <= ||w|| lambda_bar^{j-1} sum_i |c_i| r_i min(j, d_i),
    d_i = lambda_bar/(lambda_bar - |theta_i|): the j-fold growth is the
    top pair's alone.  lambda_bar = theta_max + r_top bounds ||K|| once the
    top Ritz pair approximates the leading eigenpair, which the power steps
    before n0 see to (the kernels' symbols are positive, so ||K|| is the
    leading eigenvalue).  The tail is accepted when the bound is at
    most SURVIVAL_TAIL_TOL * S_{n0+j} for every j.  The bound is checked
    every TAIL_CHECK_STEPS steps, up to EIGEN_MAX_ITER steps or the order
    of the half, first at the last frame alone.  Once that holds, one more
    product makes theta_max the Rayleigh quotient of its Ritz vector, which
    puts it within about an ulp of the eigenvalue (the eigenvalue of T_k
    can be several off), so rounding adds about j eps relative to
    S_{n0+j}, as the recursion's own drift does.  theta_max >= 1 proves the
    leading eigenvalue >= 1 and raises SolverError.  Memory: the k Lanczos
    vectors and the tail.
    """
    mult = _multiplicity(op.n)
    size = _even_norm(x, mult)
    if size == 0.0:
        tail[:] = 0.0
        return True
    cap = min(EIGEN_MAX_ITER, x.size)
    basis = np.empty((cap + 1, x.size))
    basis[0] = x / size
    alpha, beta = np.zeros(cap), np.zeros(cap)
    for k in range(1, cap + 1):
        z = op.even_matvec(basis[k - 1])
        alpha[k - 1] = mult @ (basis[k - 1] * z)
        z -= alpha[k - 1] * basis[k - 1]
        if k > 1:
            z -= beta[k - 2] * basis[k - 2]
        for _ in range(2):  # twice is enough (Parlett, The Symmetric Eigenvalue Problem)
            z -= (basis[:k] @ (mult * z)) @ basis[:k]
        beta[k - 1] = _even_norm(z, mult)
        last_step = k == cap or beta[k - 1] == 0.0
        if not last_step:
            basis[k] = z / beta[k - 1]
            if k % TAIL_CHECK_STEPS:
                continue
        theta, u = np.linalg.eigh(np.diag(alpha[:k]) + np.diag(beta[: k - 1], -1))
        if theta[-1] >= 1.0:
            raise SolverError(
                f"Lanczos survival tail at rho={op.rho}: Ritz value {float(theta[-1])} >= 1 "
                f"after {k} steps; the operator exceeds unit spectral radius"
            )
        coef = size * u[0]
        residuals = beta[k - 1] * np.abs(u[-1])
        lam_bar = theta[-1] + residuals[-1]
        # ||w|| = 1/sqrt(N) for the uniform weights
        errors = np.abs(coef) * residuals / math.sqrt(op.n)
        amplitudes = coef * ((basis[:k] @ weights) @ u)
        if _last_frame_bound_holds(theta, amplitudes, errors, lam_bar, tail.size):
            # theta_max + y.(K y - theta_max y)/y.y: the Rayleigh quotient of
            # the top Ritz vector, as a correction that a plain dot sums well
            top = u[:, -1] @ basis[:k]
            resid = op.even_matvec(top) - theta[-1] * top
            theta[-1] += (mult @ (top * resid)) / (mult @ (top * top))
            if _ritz_tail(theta, amplitudes, errors, lam_bar, tail):
                return True
        if last_step:
            return False


def _reach(theta: np.ndarray, lam_bar: float) -> np.ndarray:
    """d_i = lambda_bar/(lambda_bar - |theta_i|) of the bound in `_lanczos_tail` (inf at lambda_bar)."""
    return np.divide(lam_bar, lam_bar - np.abs(theta), out=np.full(theta.size, np.inf),
                     where=np.abs(theta) < lam_bar)


def _last_frame_bound_holds(theta: np.ndarray, amplitudes: np.ndarray, errors: np.ndarray,
                            lam_bar: float, last: int) -> bool:
    """The bound of `_lanczos_tail` at j = `last` alone, from the k Ritz pairs.

    errors_i = ||w|| |c_i| r_i.  The bound grows against S_{n0+j} with j,
    so the last frame is where a tail that fails usually fails first.
    """
    if lam_bar >= 1.0:
        return False
    bound = (errors @ np.minimum(last, _reach(theta, lam_bar))) * lam_bar ** (last - 1)
    return bound <= SURVIVAL_TAIL_TOL * (amplitudes @ theta**last)


def _ritz_tail(theta: np.ndarray, amplitudes: np.ndarray, errors: np.ndarray,
               lam_bar: float, tail: np.ndarray) -> bool:
    """Fill `tail` with sum_i amplitudes_i theta_i^j; True if the bound holds at every j.

    One Ritz pair at a time, so that memory stays that of the tail.  Each
    theta_i^j is formed only while it is a normal float: beyond, it would
    add less than amplitude_i * 2.2e-308, and powers in the subnormal range
    are slow.
    """
    steps = np.arange(1, tail.size + 1)
    tiny = np.finfo(float).tiny
    live = np.log(tiny) / np.log(np.maximum(np.abs(theta), tiny))
    tail[:] = 0.0
    bound = np.zeros(tail.size)
    for amp, th, frames, error, reach in zip(amplitudes, theta, live, errors,
                                             _reach(theta, lam_bar)):
        frames = min(tail.size, int(frames))
        tail[:frames] += amp * th ** steps[:frames]
        bound += error * np.minimum(steps, reach)
    return bool(np.all(bound * lam_bar ** (steps - 1) <= SURVIVAL_TAIL_TOL * tail))


def _fold(col: np.ndarray, n: int) -> np.ndarray:
    """Upper banded storage of the mirror-even block of a symmetric Toeplitz matrix.

    The matrix A has order n and first column `col`, zero beyond it.  For a
    mirror-even x, (A x)_i with i < m = ceil(n/2) is sum_j G_ij x_j over
    j < m, with G_ij = A_ij + A_{i,n-1-j}: the Toeplitz band plus a Hankel
    mirror term, which lies inside the band only in the last columns,
    j >= (n - bw) // 2.  For odd n the middle node is its own mirror, so G
    counts its column twice.  Row b - d holds entry (j - d, j) in column j,
    with bandwidth b = min(bw, m - 1).
    """
    bw, m = col.size - 1, (n + 1) // 2
    b = min(bw, m - 1)
    ab = np.repeat(col[b::-1, None], m, axis=1)
    c0 = max(0, (n - bw) // 2)
    mirror = n - 1 + np.arange(b, -1, -1)[:, None] - 2 * np.arange(c0, m)
    ab[:, c0:] += np.where(mirror <= bw, col[np.minimum(mirror, bw)], 0.0)
    return ab


def _symbol_condition(op: StroboOperator) -> float:
    """Bound on the condition number of P^{-1}(I - K) from the ratio of their symbols.

    With t = xi^2/(2 rho^2), a Gaussian component of width scale s has the
    symbol e^{-s^2 t} and the Laplace kernel 1/(1 + t), so the ratio is
    f(t) = (1 - sum_q w_q e^{-s_q^2 t})(1 + t)/t over the law's
    `width_nodes`.  It tends to sum_q w_q s_q^2 = 1 (unit mean) as t -> 0
    and to 1 as t -> inf; the bound is max f / min f over 400 log-spaced t
    from the interval's lowest mode, xi = pi, to the grid's Nyquist
    frequency, xi = pi N.  Aliasing and the band cut are left out.
    Exponential frames have the Laplace symbol itself: 1.
    """
    if op.law.kind == "exponential":
        return 1.0
    scales, weights = op.law.width_nodes()
    # log10 t; capped so that neither t nor s^2 t overflows, f is 1 there
    lo = min(2.0 * math.log10(math.pi / op.rho) - math.log10(2.0), 200.0)
    hi = min(lo + 2.0 * math.log10(op.n), 200.0)
    t = np.logspace(lo, hi, 400)
    ratio = -np.expm1(-np.outer(t, scales * scales)) @ weights * (1.0 + 1.0 / t)
    return float(ratio.max() / ratio.min())


def _laplace_route(op: StroboOperator):
    """(alpha, t, 4 s^2) of the closed-form P^{-1} of `_precondition`, or None.

    P = alpha I - s R is the untruncated Laplace operator at the same rho
    and grid (`laplace_band`), with s = sinh(ah/2), alpha = 1 - band_0 + s
    = cosh(ah/2) of that band, R_ij = r^{|i-j|} and r = e^{-ah};
    t = 1 - r = 2 s/(alpha + s), which keeps its digits however small ah
    is.  It is taken when the symbol-ratio bound of `_symbol_condition` is
    at most LAPLACE_COND_MAX; None leaves the banded factor of I - K itself
    as the preconditioner.
    """
    if _symbol_condition(op) > LAPLACE_COND_MAX:
        return None
    s, _ = laplace_band(op)
    alpha = math.hypot(1.0, s)
    return alpha, 2.0 * s / (alpha + s), 4.0 * s * s


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of the SPD matrix in upper banded storage `ab`.

    SciPy's LAPACK wrapper, imported on the first call: only laws beyond
    the symbol-ratio bound factor a band, so no other run loads SciPy.
    """
    from scipy.linalg import cholesky_banded as factor

    return factor(ab)


def cho_solve_banded(cb, b: np.ndarray) -> np.ndarray:
    """Solve with the factor `cb = (factor, lower)` of `cholesky_banded` (SciPy, lazy).

    The factor comes from a finite band, and b from the solvers here, so
    the finiteness check is skipped.
    """
    from scipy.linalg import cho_solve_banded as solve

    return solve(cb, b, check_finite=False)


def _factorization(op: StroboOperator) -> tuple:
    """(factor, Laplace route) of the preconditioner on the mirror-even half, cached.

    The route (`_laplace_route`) is decided here, once per operator.  On
    the Laplace route P^{-1} is applied in closed form (`_precondition`)
    from the route's three coefficients, and there is no factor (None).
    Otherwise the route is None and the preconditioner is I - K itself:
    the factor is the banded Cholesky factor of its fold, of bandwidth
    min(bw, m - 1).  With E = I except for a 2 at the middle node of odd N,
    A z = b on the even subspace becomes G y = b[:m] with z[:m] = E y, and
    G is positive definite whenever A is.
    """
    cached = _factor_cache.get(op)
    if cached is not None:
        return cached
    route = _laplace_route(op)
    factor = None
    if route is None:
        n, m = op.n, (op.n + 1) // 2
        b = min(op.bandwidth, m - 1)
        # the banded storage and the factor LAPACK returns beside it
        need = 2 * 8.0 * (b + 1) * m
        if need > _physical_memory():
            raise MemoryError(
                f"the Cholesky factor of N={n}, bandwidth {b} needs {need / 2**30:.3g} GiB, "
                f"more than the physical memory"
            )
        ab = _fold(-op.band, n)
        ab[b] += 1.0
        if n % 2:
            ab[b, -1] += 1.0
        try:
            factor = cholesky_banded(ab)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"banded Cholesky factor of I - K at rho={op.rho}: not positive "
                f"definite; the operator exceeds unit spectral radius"
            ) from exc
    _factor_cache[op] = factor, route
    return factor, route


def _precondition(op: StroboOperator, half: np.ndarray) -> np.ndarray:
    """First half of P^{-1} b for the mirror-even b with b[:m] = half.

    On the Laplace route R^{-1} = T/q with T = tridiag(-r, 1 + r^2, -r) but
    1 in both corners and q = 1 - r^2 (Kac, Murdock & Szego, J. Rational
    Mech. Anal. 2, 1953).  Since alpha (1 - r)^2 = s q, alpha T - s q I is
    alpha r L with L = tridiag(-1, 2, -1) but 1 + t in both corners, and
    P^{-1} = (I + 4 s^2 L^{-1})/alpha.  L^{-1}_ij = u_i v_j / D for i <= j,
    with u_i = 1 + i t, v_j = u_{N-1-j} and D = t (2 + (N-1) t) (Meurant,
    SIAM J. Matrix Anal. Appl. 13, 1992).  u and v are linear and b is
    even, so with the tails c_k = sum_{j>=k} b_j over the half (the middle
    node of odd N counted 1/2), 4 s^2 (L^{-1} b)_i = t c_0 +
    4 s^2 (c_0 + ... + c_i): two cumulative sums, of positive terms when b
    is positive.  A vanishing rho makes s^2 underflow and t c_0 negligible
    beside b, and P^{-1} is 1/alpha.
    """
    factor, route = _factorization(op)
    if route is None:
        z = cho_solve_banded((factor, False), half)
        if op.n % 2:
            z[-1] *= 2.0
        return z
    alpha, t, s2 = route
    tails = np.cumsum(half[::-1])[::-1]
    if op.n % 2:
        tails -= 0.5 * half[-1]
    return (half + t * tails[0] + s2 * np.cumsum(tails)) / alpha


def _resolvent_solve(op: StroboOperator, rhs: np.ndarray) -> np.ndarray:
    """First half of x = (I - K)^{-1} b for the mirror-even b with b[:m] = rhs.

    x meets the normwise backward-error contract
    ||b - (I - K) x||_inf <= RESIDUAL_TOL (||I - K||_inf ||x||_inf + ||b||_inf)
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 7.1), with
    ||I - K||_inf taken as 1 - band[0] + 2 sum(band[1:]): exact once N > 2 bw,
    and at most 2.  Conjugate gradients with the preconditioner of the
    module docstring: each step one `even_matvec` and one solve with P.
    Once the recursive residual meets the bound, the true residual is formed
    with one more `even_matvec`.  If it misses, it replaces the recursive
    residual and the search direction restarts from it (residual
    replacement; van der Vorst & Ye, SIAM J. Sci. Comput. 22, 2000); a
    second miss raises SolverError.  Non-positive curvature p.(I - K)p <= 0
    raises SolverError, EIGEN_MAX_ITER steps in all ConvergenceError.
    """
    mult = _multiplicity(op.n)
    norm = 1.0 - op.band[0] + 2.0 * op.band[1:].sum()
    rhs_max = np.max(np.abs(rhs))
    x, res = np.zeros_like(rhs), rhs
    p = rz = None
    steps, restarted = 0, False
    while True:
        bound = RESIDUAL_TOL * (norm * np.max(np.abs(x)) + rhs_max)
        if np.max(np.abs(res)) <= bound:
            res = rhs - (x - op.even_matvec(x))
            if np.max(np.abs(res)) <= bound:
                return x
            if restarted:
                raise SolverError(
                    f"PCG resolvent solve at rho={op.rho}: true residual "
                    f"{np.max(np.abs(res)):.3e} exceeds the backward-error bound "
                    f"{bound:.3e} after {steps} steps and one restart"
                )
            p, restarted = None, True
        if steps == EIGEN_MAX_ITER:
            raise ConvergenceError(
                f"PCG resolvent solve at rho={op.rho}: recursive residual "
                f"{np.max(np.abs(res)):.3e} exceeds the backward-error bound "
                f"{bound:.3e} after {steps} steps"
            )
        z = _precondition(op, res)
        rz_next = float(mult @ (res * z))
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        ap = p - op.even_matvec(p)
        curvature = float(mult @ (p * ap))
        if not curvature > 0.0:
            raise SolverError(
                f"PCG resolvent solve at rho={op.rho}: curvature p.(I - K)p = "
                f"{curvature:.3e} <= 0 at step {steps + 1} with residual "
                f"{np.max(np.abs(res)):.3e} against the bound {bound:.3e}; "
                f"(I - K) is not positive definite, the operator exceeds unit "
                f"spectral radius"
            )
        step = rz / curvature
        x = x + step * p
        res = res - step * ap
        steps += 1


def _weight_resolvent(op: StroboOperator) -> np.ndarray:
    """First half of u = (I - K)^{-1} w, solved once per operator and cached."""
    u = _weight_resolvent_cache.get(op)
    if u is None:
        u = _resolvent_solve(op, op.weights[: (op.n + 1) // 2])
        u.setflags(write=False)
        _weight_resolvent_cache[op] = u
    return u


def mean_frames(op: StroboOperator, y0: float) -> ExitStats:
    """Mean frames beyond the first and E[tau] = 1 + M, for a start at y0.

    M = w . (I - K)^{-1} h(y0) = h(y0) . u, since K is symmetric, with the
    cached u = (I - K)^{-1} w: every start point after the first costs one
    kernel profile and one dot product.  u is even, so the dot product is
    that of the even half of h with u, weighted by `_multiplicity`.
    """
    h = _even_half(initial_vector(op, y0))
    M = float((_multiplicity(op.n) * h) @ _weight_resolvent(op))
    return ExitStats(M=M, mean_tau=1.0 + M)


def spectral_pair(op: StroboOperator, y0: float = 0.5):
    """Leading eigenvalue, eigenvector and overlap amplitude of K.

    Locally optimal preconditioned conjugate gradients with block size 1
    (LOPCG; Knyazev, SIAM J. Sci. Comput. 23, 2001), started from the
    half-sine profile (the wide-kernel limit mode): each step takes the
    Rayleigh-Ritz maximizer of K over the iterate v, its residual
    preconditioned by the P of the module docstring (where P is I - K
    itself, the span holds the inverse-iteration step), and the previous
    search direction.  The leading mode is even, so every
    vector lives on the half of ceil(N/2) entries, with the inner products
    of `_multiplicity`; the vector is unfolded once at the end.  Each step
    makes one `StroboOperator.even_matvec`, of the preconditioned residual;
    the images of v and of the search direction are carried along
    linearly.  Stops once ||K v - lambda0 v||_2 <= EIGEN_TOL * lambda0 for
    the unit vector v and its Rayleigh quotient lambda0, confirmed with a
    fresh product of v.  EIGEN_MAX_ITER steps raise ConvergenceError.
    `a0_est` is normalized so that S_n ~ a0_est * lambda0^n for large n with
    the start point `y0`.
    """
    mult = _multiplicity(op.n)

    def orthonormalize(z, image, basis, images):
        """z and its image K z, made orthogonal to `basis` and then unit."""
        for u, ku in zip(basis, images):
            c = mult @ (u * z)
            z, image = z - c * u, image - c * ku
        size = _even_norm(z, mult)
        return z / size, image / size

    vec = np.sin(np.pi * op.grid[: mult.size])
    vec /= _even_norm(vec, mult)
    image, fresh = op.even_matvec(vec), True
    direction = direction_image = None
    steps = 0
    while True:
        lam = float(mult @ (vec * image))
        res = image - lam * vec
        residual = _even_norm(res, mult)
        if residual <= EIGEN_TOL * lam:
            if fresh:
                break
            # the carried image holds rounding from every step: confirm
            image, fresh = op.even_matvec(vec), True
            continue
        if steps == EIGEN_MAX_ITER:
            raise ConvergenceError(
                f"LOPCG spectral_pair at rho={op.rho}: eigen residual "
                f"{residual:.3e} exceeds the bound {EIGEN_TOL * lam:.3e} after {steps} steps"
            )
        steps += 1
        # the preconditioned unit residual; its image is the step's one
        # product, of a vector of order 1 (at tiny rho K times a vector of
        # the residual's size underflows)
        w = _precondition(op, res / residual)
        w, kw = orthonormalize(w, op.even_matvec(w), [vec], [image])
        basis, images = [vec, w], [image, kw]
        if direction is not None:
            p, kp = orthonormalize(direction, direction_image, basis, images)
            basis.append(p)
            images.append(kp)
        basis, images = np.array(basis), np.array(images)
        ritz = (basis * mult) @ images.T
        coef = np.linalg.eigh(0.5 * (ritz + ritz.T))[1][:, -1]
        direction, direction_image = coef[1:] @ basis[1:], coef[1:] @ images[1:]
        vec, image = coef @ basis, coef @ images
        size = _even_norm(vec, mult)
        vec, image, fresh = vec / size, image / size, False
    if not 0.0 < lam < 1.0:
        raise SolverError(
            f"LOPCG spectral_pair at rho={op.rho}: leading eigenvalue {lam} outside "
            f"(0, 1) after {steps} steps, eigen residual {residual:.3e} against the "
            f"bound {EIGEN_TOL * lam:.3e}"
        )
    vec = _unfold(vec, op.n)
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

