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
part of h.  An even vector is carried as its first m = ceil(N/2) entries,
and K folds into `StroboOperator.even_matvec` (Cantoni & Butler, Linear
Algebra Appl. 13, 1976), which makes every product of the survival
recursion and its Lanczos tail, of PCG, of its residual check and of the
eigensolver.  Sums, inner products and norms over the full grid weight
each mirrored pair 2 and the middle node of odd N 1 (`_multiplicity`); max
norms are those of the half.

The eigensolver and the survival tail grow one orthonormal basis V on the
half (`_extend`) and fill the lower triangle of V^T K V, all that `eigh`
reads, one row per product: the tail adds the image of its last vector,
the eigensolver its preconditioned residual.

The solve (`_resolvent_solve`) is preconditioned conjugate gradients, the
eigensolver (`spectral_pair`) preconditioned Davidson (Davidson,
J. Comput. Phys. 17, 1975), both with one preconditioner P chosen once per
operator (`_factorization`), and both NumPy only.  P is the
exponential-frame (Laplace) operator I - K_L at the same rho and grid
wherever the symbol-ratio bound allows it (`_laplace_route`).  Every law
is unit-mean, so every law has the diffusion scale of P and matches it at
low frequency.  P^{-1} has a closed form: it is cosh(ah/2)^{-1}
(I + 4 sinh^2(ah/2) L^{-1}) with L the second-difference matrix whose
Green's function is explicit (Meurant, SIAM J. Matrix Anal. Appl. 13,
1992), and on the half it takes two cumulative sums (`_precondition`).
The ratio of the symbols of I - K and P bounds the condition number of
P^{-1}(I - K) (Chan & Ng, SIAM Rev. 38, 1996): for deterministic frames
it is (1 - e^{-t})(1 + t)/t, in [1, 1.30], and PCG solves in 10 to 12
steps; Davidson finds the leading pair in 8 to 10.  Exponential frames,
for which P is I - K up to the omitted band tail, take one PCG step (up
to 3 with the band cut at eta = 6).  Beyond LAPLACE_COND_MAX = 2 (two-point
mixtures such as twopoint:0.0001,1,0.95, bound 13.5, where P would take up
to 53 steps) P is the sine-transform (tau) matrix of I - K: I - K plus
the images of K at the two walls, which the midpoint sines sin(k pi y_i)
diagonalize (Bini & Capovani, Linear Algebra Appl. 52/53, 1983; Serra
Capizzano, Math. Comp. 68, 1999).  Its eigenvalues come from one FFT of
the band, and an apply on the half takes two complex FFTs of length N
(`_sine_transform`): PCG then takes 5 to 8 steps and Davidson 6 to 11 (14
at rho = 5).  Within the bound the Laplace apply is the cheaper of the two
(16-33 against 48-190 microseconds for N = 360 to 3600, one thread).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SolverError
from .operator_core import StroboOperator, averaged_kernel, laplace_band

# Contractual bound on the normwise backward error of a resolvent solve,
# ||b - (I-K)x||_inf / (||I-K||_inf ||x||_inf + ||b||_inf).
RESIDUAL_TOL = 8.0 * np.finfo(float).eps
# Contractual bound on ||K v - lambda v||_2 / lambda for the unit eigenvector
# returned by spectral_pair, and the step cap of its Davidson and of each PCG solve.
EIGEN_TOL = 1e-13
EIGEN_MAX_ITER = 100
# Largest symbol-ratio bound on cond(P^{-1}(I - K)) for which the Laplace
# preconditioner is used; beyond it the sine transform saves more steps than
# its dearer apply costs (measured: Laplace wins or ties up to 1.30, the sine
# transform wins from 2.14).
LAPLACE_COND_MAX = 2.0
# Bound on the Krylov truncation error of each survival value taken from the
# Lanczos tail, relative to that value, and the Lanczos steps between checks.
SURVIVAL_TAIL_TOL = 1e-13
TAIL_CHECK_STEPS = 10

# Per operator: the preconditioner's (sine transform, Laplace coefficients), and u = (I - K)^{-1} w.
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


def _extend(basis: np.ndarray, k: int, z: np.ndarray, mult: np.ndarray) -> tuple:
    """Store z, made orthonormal to basis[:k], as basis[k]; (its size, basis[:k] . z).

    Two classical Gram-Schmidt passes in the inner product of `_multiplicity`
    (twice is enough: Parlett, The Symmetric Eigenvalue Problem); the size
    is taken after both, and basis[k] is left as it was when it is 0.
    """
    coef = basis[:k] @ (mult * z)
    z = z - coef @ basis[:k]
    z -= (basis[:k] @ (mult * z)) @ basis[:k]
    size = _even_norm(z, mult)
    if size > 0.0:
        basis[k] = z / size
    return size, coef


def _lanczos_tail(op: StroboOperator, x: np.ndarray, weights: np.ndarray,
                  tail: np.ndarray) -> bool:
    """Write S_{n0+j} = w . K^j x for j = 1..tail.size into `tail`; True if the bound holds.

    Lanczos on the half from q_1 = x/||x||, each K q_k made orthonormal to
    Q_k by `_extend` (full reorthogonalization): K Q_k = Q_k T_k +
    beta_k q_{k+1} e_k^T (Saad, Numerical Methods for Large Eigenvalue
    Problems, 2011, ch. 6), with row k of T_k = Q_k^T K Q_k from the first
    Gram-Schmidt pass and beta_k the size left after both.
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
    cap = min(EIGEN_MAX_ITER, x.size)
    basis = np.empty((cap + 1, x.size))
    ritz = np.zeros((cap, cap))
    size, _ = _extend(basis, 0, x, mult)
    if size == 0.0:
        tail[:] = 0.0
        return True
    for k in range(1, cap + 1):
        beta, ritz[k - 1, :k] = _extend(basis, k, op.even_matvec(basis[k - 1]), mult)
        last_step = k == cap or beta == 0.0
        if not last_step and k % TAIL_CHECK_STEPS:
            continue
        theta, u = np.linalg.eigh(ritz[:k, :k])
        if theta[-1] >= 1.0:
            raise SolverError(
                f"Lanczos survival tail at rho={op.rho}: Ritz value {float(theta[-1])} >= 1 "
                f"after {k} steps; the operator exceeds unit spectral radius"
            )
        coef = size * u[0]
        residuals = beta * np.abs(u[-1])
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


def _symbol_condition(op: StroboOperator) -> float:
    """Bound on the condition number of P^{-1}(I - K) from the ratio of their symbols.

    With t = xi^2/(2 rho^2), a Gaussian component of width scale s has the
    symbol e^{-s^2 t} and the Laplace kernel 1/(1 + t), so the ratio is
    f(t) = (1 - sum_q w_q e^{-s_q^2 t})(1 + t)/t over the law's
    `width_nodes`.  It tends to sum_q w_q s_q^2 = 1 (unit mean) as t -> 0
    and to 1 as t -> inf; the bound is max f / min f over 400 log-spaced t
    from the interval's lowest mode, xi = pi, to the grid's Nyquist
    frequency, xi = pi N.  Aliasing and the band cut are left out.
    Exponential frames have the Laplace symbol itself: 1.  `_laplace_route`
    compares it with LAPLACE_COND_MAX to choose between the Laplace and the
    sine-transform preconditioner.
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
    at most LAPLACE_COND_MAX; None leaves the sine transform
    (`_sine_transform`) as the preconditioner.
    """
    if _symbol_condition(op) > LAPLACE_COND_MAX:
        return None
    s, _ = laplace_band(op)
    alpha = math.hypot(1.0, s)
    return alpha, 2.0 * s / (alpha + s), 4.0 * s * s


def _sine_transform(op: StroboOperator) -> tuple:
    """(lambda, shift, twiddle) of the sine-transform P^{-1} of `_precondition`.

    P = I - K + H, with H_ij = band[i+j+1] + band[2N-1-i-j] (zero beyond
    the band) the images of K at the walls, is diagonalized by
    s_k(i) = sin(k pi y_i), k = 1..N, with eigenvalues lambda_k =
    1 - band_0 - 2 sum_d band_d cos(k pi d/N), all from one rfft of the
    band zero-padded to 2N.  An even vector has only odd-k coefficients, so
    the m = ceil(N/2) of odd k = 2l + 1 are kept, with shift_j = e^{-i pi j/N}
    and twiddle_l = e^{-i pi k/(2N)}.  A lambda_k <= 0, where the band's
    symbol reaches 1, raises SolverError.
    """
    n, m = op.n, (op.n + 1) // 2
    lam = 1.0 - (2.0 * np.fft.rfft(op.band, 2 * n).real[1::2] - op.band[0])
    if not np.all(lam > 0.0):
        k = int(np.argmin(lam))
        raise SolverError(
            f"sine-transform preconditioner of I - K at rho={op.rho}: eigenvalue "
            f"{lam[k]:.3e} <= 0 at k={2 * k + 1}; the band's symbol reaches 1, as it "
            f"does where aliasing lifts the operator past unit spectral radius"
        )
    shift = np.exp(-1j * np.pi / n * np.arange(n))
    twiddle = np.exp(-0.5j * np.pi / n * (2 * np.arange(m) + 1))
    return lam, shift, twiddle


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of the SPD matrix in upper banded storage `ab`.

    SciPy's LAPACK wrapper, imported on the first call.  No solver here
    calls it; the benchmark's trace table still names it.
    """
    from scipy.linalg import cholesky_banded as factor

    return factor(ab)


def cho_solve_banded(cb, b: np.ndarray) -> np.ndarray:
    """Solve with the factor `cb = (factor, lower)` of `cholesky_banded` (SciPy, lazy).

    The finiteness check is skipped.  No solver here calls it; the
    benchmark's trace table still names it.
    """
    from scipy.linalg import cho_solve_banded as solve

    return solve(cb, b, check_finite=False)


def _factorization(op: StroboOperator) -> tuple:
    """(sine transform, Laplace route) of the preconditioner on the mirror-even half, cached.

    The route (`_laplace_route`) is decided here, once per operator.  On
    the Laplace route P^{-1} is applied in closed form (`_precondition`)
    from the route's three coefficients, and the sine transform is None.
    Otherwise the route is None and the preconditioner is the sine
    transform of `_sine_transform`, from its cached eigenvalues.
    """
    cached = _factor_cache.get(op)
    if cached is None:
        route = _laplace_route(op)
        cached = (None if route is not None else _sine_transform(op)), route
        _factor_cache[op] = cached
    return cached


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

    Otherwise P^{-1} b = sum_k s_k (s_k . b)/(lambda_k ||s_k||^2) over odd
    k = 2l + 1, with ||s_k||^2 = N/2 but N for k = N.  With the shift and
    twiddle of `_sine_transform`, s_k . b = -Im(twiddle_l FFT(shift b)_l)
    over the full even b, and sum_l d_l s_k(i) = Im(conj(shift_i) N
    IFFT(d conj(twiddle))_i): two complex FFTs of length N, with the
    factor -2/N of every d_l taken out of the sum.
    """
    sine, route = _factorization(op)
    if route is None:
        lam, shift, twiddle = sine
        m = half.size
        coef = (twiddle * np.fft.fft(shift * _unfold(half, op.n))[:m]).imag / lam
        if op.n % 2:
            coef[-1] *= 0.5
        return -2.0 * (shift[:m].conj() * np.fft.ifft(coef * twiddle.conj(), op.n)[:m]).imag
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


def _eigen_residual(vec: np.ndarray, image: np.ndarray, mult: np.ndarray) -> tuple:
    """(lambda, K v - lambda v, its norm) for the half v of a unit vector and its image K v."""
    lam = float(mult @ (vec * image))
    res = image - lam * vec
    return lam, res, _even_norm(res, mult)


def spectral_pair(op: StroboOperator, y0: float = 0.5):
    """Leading eigenvalue, eigenvector and overlap amplitude of K.

    Preconditioned Davidson (Davidson, J. Comput. Phys. 17, 1975) from the
    half-sine profile (the wide-kernel limit mode).  The basis V grows by
    one vector a step, the preconditioned unit residual P^{-1} r/||r|| of
    the top Ritz pair of V^T K V, with the P of the module docstring (where
    P is I - K itself, the span holds the inverse-iteration step), made
    orthonormal to V by `_extend`.  The leading mode is even, so every
    vector lives on the half of ceil(N/2) entries, with the inner products
    of `_multiplicity`; the vector is unfolded once at the end.  Each step
    makes one `StroboOperator.even_matvec`, of the new basis vector, kept
    beside it for the residual and the new row of V^T K V.  Stops once
    ||K v - lambda0 v||_2 <= EIGEN_TOL * lambda0 for the top Ritz vector v
    and its Rayleigh quotient lambda0, confirmed with a fresh product of v.
    A basis of EIGEN_MAX_ITER + 1 vectors or of the order of the half
    without that raises ConvergenceError.  `a0_est` is normalized so that
    S_n ~ a0_est * lambda0^n for large n with the start point `y0`.
    """
    mult = _multiplicity(op.n)
    cap = min(EIGEN_MAX_ITER + 1, mult.size)
    basis, images = np.zeros((cap, mult.size)), np.zeros((cap, mult.size))
    ritz = np.zeros((cap, cap))
    z = np.sin(np.pi * op.grid[: mult.size])
    for k in range(1, cap + 1):
        _extend(basis, k - 1, z, mult)
        images[k - 1] = op.even_matvec(basis[k - 1])
        ritz[k - 1, :k] = basis[:k] @ (mult * images[k - 1])
        coef = np.linalg.eigh(ritz[:k, :k])[1][:, -1]
        vec = coef @ basis[:k]
        lam, res, residual = _eigen_residual(vec, coef @ images[:k], mult)
        if residual <= EIGEN_TOL * lam:
            # the image holds rounding from every column: confirm
            lam, res, residual = _eigen_residual(vec, op.even_matvec(vec), mult)
            if residual <= EIGEN_TOL * lam:
                break
        # the preconditioned unit residual: at tiny rho K times a vector of
        # the residual's size underflows
        z = _precondition(op, res / residual)
    else:
        raise ConvergenceError(
            f"Davidson spectral_pair at rho={op.rho}: eigen residual "
            f"{residual:.3e} exceeds the bound {EIGEN_TOL * lam:.3e} after {k - 1} steps"
        )
    if not 0.0 < lam < 1.0:
        raise SolverError(
            f"Davidson spectral_pair at rho={op.rho}: leading eigenvalue {lam} outside "
            f"(0, 1) after {k - 1} steps, eigen residual {residual:.3e} against the "
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

