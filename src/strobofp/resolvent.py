"""Survival sequences, mean exit frames via the resolvent, leading spectral pair.

Everything here consumes an immutable `StroboOperator`.  The expected number
of frames beyond the first, M = sum_{n>=1} S_n = w . (I - K)^{-1} h, is
obtained from a symmetric positive-definite solve rather than by summing
the series.  K is symmetric, so M(y0) = h(y0) . u with u = (I - K)^{-1} w:
one cached solve per operator serves every start point.  Solves meet a
normwise backward-error contract (`_resolvent_solve`).  Along a sweep
the solve of each point from the third starts from the (operator, u) pairs
of the two before it (`weight_resolvent`), where all three share law,
bandwidth and rho/n, the two differ in N, and the band's row sum is 1 to
rounding (`_sweep_start`).  On the default grid N = ceil(18 rho) a sweep
whose 18 rho are integers is then a sequence of finite sections of one
Toeplitz matrix, and N u is affine in N node by node.  The start is
within about 1e-12 of u, and the solve takes 1 to 4 products (1 from
rho = 50 on in the default sweeps) instead of 7 to 10: `meantau` over
20:200:10 makes 135 products instead of 252, `fit --which boundary` and
`figures` 35 instead of 152.  Such a u may differ from the zero-start one
in the last digits, within the same contract; every other solve starts
from 0.
`neumann_partial_sum` provides the series route as a consistency check.
The geometric decay rate lambda0 comes from one Davidson loop with two
stops.  `spectral_pair`, whose callers take the eigenvector, stops on the
residual: ||K v - lambda0 v||_2 <= max(EIGEN_TOL, 2 eps sqrt(m)) lambda0 on a
half of m entries, confirmed by a fresh product.  `leading_eigenvalue`, for
callers that print lambda0 alone, also stops on the value: the Kato-Temple
bound |theta - lambda0| <= r^2/delta (Kato, J. Phys. Soc. Japan 4, 1949;
Temple, Proc. R. Soc. A 119, 1928) falls to (eps/2) theta two steps
before the residual meets its bound, with delta = GAP_SAFETY
min(theta_1 - theta_2, 8 (1 - theta_1)) estimated from the Ritz values,
and skips the confirming product away from the rounding floor.  Along a
sweep each Davidson from the second point starts from the eigenvector of
the point before it, stretched by the ratio of the two sections' shifted
sines (`_eigen_start`), where the two share law and bandwidth; the
extrapolation length of the sines is read off the band's own symbol
(`_extrapolation_steps`).  Both stops are unchanged, and every other
Davidson starts from the half-sine.

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
part of h.  An even vector is carried as its first m = ceil(N/2) entries
in the operator's fold (`StroboOperator.fold`, `unfold`), and K folds into
`StroboOperator.even_matvec` (Cantoni & Butler, Linear Algebra Appl. 13,
1976), which makes every product of the survival recursion and its
Lanczos tail, of PCG, of its residual check and of the eigensolver.
Sums, inner products and norms over the full grid weight each mirrored
pair 2 and the middle node of odd N 1 (`StroboOperator.multiplicity`,
`_dot`); max norms are those of the half.

The eigensolver and the survival tail grow an orthonormal basis V on the
half, allocated once for their step cap, and fill the lower triangle of
V^T K V, all that `eigh` reads, one row per product: the tail adds the
image of its last vector, the eigensolver its preconditioned residual.
Both add it by `_extend`: classical Gram-Schmidt, with a second pass
where the first leaves less than 0.7 of the norm (the DGKS test).  The
tail's first pass leaves about 2% of the norm of K q_k, so it takes the
second at almost every step (98 of 101 at rho = 300); the eigensolver
takes it at 0 to 7 of its 7 to 12.

The solve (`_resolvent_solve`) is preconditioned conjugate gradients, the
eigensolver (`spectral_pair`) preconditioned Davidson (Davidson,
J. Comput. Phys. 17, 1975).  Both apply one preconditioner M, chosen once
per operator (`_preconditioner`) and applied by `_precondition`, and both
are NumPy only.  Wherever the symbol-ratio bound allows it
(`_symbol_condition`), M is built on P, the exponential-frame (Laplace)
operator I - K_L at the same rho and grid.  Every law is unit-mean, so
every law has the diffusion scale of P and matches it at low frequency.
P^{-1} has a closed form: it is cosh(ah/2)^{-1} (I + 4 sinh^2(ah/2) L^{-1})
with L the second-difference matrix whose Green's function is explicit
(Meurant, SIAM J. Matrix Anal. Appl. 13, 1992), and on the half it takes
two cumulative sums.  The ratio of the symbols of I - K and P bounds the
condition number of P^{-1}(I - K) (Chan & Ng, SIAM Rev. 38, 1996): for
deterministic frames it is (1 - e^{-t})(1 + t)/t, in [1, 1.2984].

M = P^{-1} - CORRECTION_WEIGHT G, G the untruncated Laplace cell-mean
kernel at rate CORRECTION_RATE rho, of symbol tau/(t + tau) with
tau = 2.4761, applied to an even vector by one rescaled cumulative sum.
The constants minimize the deterministic ratio
(1 - e^{-t})(1 + 1/t - 1.5455/(t + tau)): its bound is 1.0245, against
1.2984 for P alone.  M is positive definite, so PCG takes it as Davidson
does:
  the untruncated Laplace cell-mean kernel at any rate has the lattice
  symbol 1 at theta = 0 and 1 - e^{-x} - tanh(x) e^{-x} > 0 at theta = pi,
  x = ah/2, and lies between them;
  so the eigenvalues of P lie in (0, 1), those of P^{-1} above 1, and
  those of G in (0, 1);
  so lambda(M) > 1 - CORRECTION_WEIGHT = 0.3758.
The term is kept only where it lowers the law's bound (`_preconditioner`):
deterministic frames, uniform jitter and narrow two-point laws such as
twopoint:0.5,1.5,0.5.  Exponential frames, for which P is I - K up to the
omitted band tail, wider two-point laws such as twopoint:0.2,1,0.5 and
the sine-transform route keep M = P^{-1}.  With the term deterministic
frames take 6 to 7 PCG steps for rho = 5 to 3000 (10 to 12 without), and
Davidson 8 steps for rho = 20 to 70 and 7 from rho = 80 to 500 (6 beyond;
11 without up to rho = 200).  Exponential frames take one PCG step (up
to 3 with the band cut at eta = 6).  The term adds 8-23 microseconds to
each apply for N = 360 to 3600, less than the product of a step.

Beyond LAPLACE_COND_MAX = 2 (two-point mixtures such as
twopoint:0.0001,1,0.95, bound 13.5, where P would take up to 53 steps) M
is the inverse of the sine-transform (tau) matrix of I - K: I - K plus the
images of K at the two walls, which the midpoint sines sin(k pi y_i)
diagonalize (Bini & Capovani, Linear Algebra Appl. 52/53, 1983; Serra
Capizzano, Math. Comp. 68, 1999).  Its eigenvalues come from one FFT of
the band, and an apply on the half takes two complex FFTs of length N
(`_sine_transform`): PCG then takes 5 to 8 steps and Davidson 6 to 11 (14
at rho = 5).  Within the bound the Laplace apply is the cheaper of the
two (5-40 against 24-105 microseconds for N = 360 to 3600, one thread).
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
# returned by spectral_pair up to its rounding floor (`spectral_pair`), and
# the step cap of its Davidson and of each PCG solve.  `leading_eigenvalue`
# stops on this residual too, or earlier on its value stop.
EIGEN_TOL = 1e-13
EIGEN_MAX_ITER = 100
# The value stop of `leading_eigenvalue`: the safety factor on its gap
# estimate (`_gap_estimate`), and the margin over the rounding floor
# 2 eps sqrt(m) theta from which it takes the residual unconfirmed.
GAP_SAFETY = 0.75
CONFIRM_MARGIN = 4.0
# The most Newton steps on the band's symbol that give a sweep's Davidson
# start its extrapolation length (`_extrapolation_steps`), and the step,
# relative to theta, at which they have converged.
EIGEN_START_NEWTON = 8
EIGEN_START_NEWTON_TOL = 1e-4
# Largest symbol-ratio bound on cond(P^{-1}(I - K)) for which the Laplace
# preconditioner is used; beyond it the sine transform saves more steps than
# its dearer apply costs (measured: Laplace wins or ties up to 1.30, the sine
# transform wins from 2.14).
LAPLACE_COND_MAX = 2.0
# Bound on the Krylov truncation error of each survival value taken from the
# Lanczos tail, relative to that value, and the Lanczos steps between checks.
SURVIVAL_TAIL_TOL = 1e-13
TAIL_CHECK_STEPS = 10
# The correction term of M = P^{-1} - CORRECTION_WEIGHT G on the Laplace
# route (`_correction_term`): the Laplace cell-mean kernel G at rate
# CORRECTION_RATE * rho.  The pair minimizes the deterministic symbol-ratio
# bound, to 1.0245 from 1.2984 without the term.
CORRECTION_RATE = 2.2254
CORRECTION_WEIGHT = 0.6242
# Sums of squares at or above this are summed unscaled (`_norm`): squares
# that underflow then add less than an ulp.
_SQUARES_MIN = np.finfo(float).tiny / np.finfo(float).eps
# Largest exponent a * h * length of one rescaled cumulative sum of G.
_RESCALE_EXP = 600.0

# Per operator: the record of `_preconditioner`, u = (I - K)^{-1} w, and
# (lambda0, first half of its eigenvector) from its last Davidson.
_preconditioner_cache = weakref.WeakKeyDictionary()
_weight_resolvent_cache = weakref.WeakKeyDictionary()
_eigen_cache = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class SurvivalSeries:
    """Survival probabilities S_0..S_nmax for one start point."""

    rho: float
    y0: float
    values: np.ndarray


@dataclass(frozen=True)
class ExitStats:
    """Mean frame counts and, from `exit_stats`, the leading eigenvalue and gap."""

    M: float
    mean_tau: float
    lambda0: float | None = None
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


def _dot(a: np.ndarray, b: np.ndarray, mult: np.ndarray):
    """Full-grid inner products of the even vector of half b with that of half a (or each row)."""
    return 2.0 * (a @ b) if mult[-1] == 2.0 else a @ (mult * b)


def _norm(z: np.ndarray, mult: np.ndarray) -> float:
    """Full-grid 2-norm of the mirror-even vector whose half is z.

    The plain sum of squares where it lies from tiny/eps up to the largest
    float: there it loses no more than a rescaled one.  Outside that range,
    and for NaN, z is scaled by max|z| first: squares of entries below
    ~1e-154 underflow (rho -> 0 scales K, and every residual, with rho;
    late survival states are tiny), and those above ~1e154 overflow, which
    `np.vdot`, unlike `@`, and Python floats do without a warning.
    """
    last = float(z[-1]) if mult[-1] == 1.0 else 0.0
    squares = 2.0 * float(np.vdot(z, z)) - last * last
    if _SQUARES_MIN <= squares < math.inf:
        return math.sqrt(squares)
    scale = float(np.abs(z).max())
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
    mult = op.multiplicity
    weights = op.weights[: mult.size] * mult
    values = np.empty(n_max + 1)
    values[0] = 1.0
    vec = op.fold(initial_vector(op, y0))
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

    Classical Gram-Schmidt in the inner product of the operator's fold
    (`StroboOperator.multiplicity`), with a second pass only where the first
    leaves less than 0.7 of the norm of z (the DGKS test: Daniel, Gragg,
    Kaufman & Stewart, Math. Comp. 30, 1976; twice is enough: Parlett, The
    Symmetric Eigenvalue Problem).  The coefficients are the first pass's
    and the size is that left after the last; where the size is 0, z lies
    in the span and basis[k] is set to 0.
    """
    before = _norm(z, mult)
    coef = _dot(basis[:k], z, mult)
    row = np.subtract(z, coef @ basis[:k], out=basis[k])
    size = _norm(row, mult)
    if size < 0.7 * before:
        row -= _dot(basis[:k], row, mult) @ basis[:k]
        size = _norm(row, mult)
    if size > 0.0:
        row /= size
    return size, coef


def _lanczos_tail(op: StroboOperator, x: np.ndarray, weights: np.ndarray,
                  tail: np.ndarray) -> bool:
    """Write S_{n0+j} = w . K^j x for j = 1..tail.size into `tail`; True if the bound holds.

    Lanczos on the half from q_1 = x/||x||, each K q_k made orthonormal to
    Q_k by `_extend` (full reorthogonalization): K Q_k = Q_k T_k +
    beta_k q_{k+1} e_k^T (Saad, Numerical Methods for Large Eigenvalue
    Problems, 2011, ch. 6), with row k of T_k = Q_k^T K Q_k from the first
    Gram-Schmidt pass and beta_k the size left after the last.
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
    mult = op.multiplicity
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
            theta[-1] += _dot(top, resid, mult) / _dot(top, top, mult)
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


def _symbol_condition(op: StroboOperator) -> tuple:
    """Bounds on the condition numbers of P^{-1}(I - K) and M(I - K) from symbol ratios.

    With t = xi^2/(2 rho^2), a Gaussian component of width scale s has the
    symbol e^{-s^2 t} and the Laplace kernel 1/(1 + t), so the ratio for P
    is f(t) = (1 - sum_q w_q e^{-s_q^2 t})(1 + t)/t over the law's
    `width_nodes`.  It tends to sum_q w_q s_q^2 = 1 (unit mean) as t -> 0
    and to 1 as t -> inf; the bound is max f / min f over 400 log-spaced t
    from the interval's lowest mode, xi = pi, to the grid's Nyquist
    frequency, xi = pi N.  Aliasing and the band cut are left out.  For
    M = P^{-1} - CORRECTION_WEIGHT G, G the Laplace kernel of symbol
    tau/(t + tau) at rate CORRECTION_RATE rho, tau = CORRECTION_RATE^2/2,
    (1 + t)/t becomes 1 + 1/t - CORRECTION_WEIGHT tau/(t + tau).  Both
    bounds come from one evaluation of the law's symbol; `_preconditioner`
    compares the first with LAPLACE_COND_MAX to choose between the Laplace
    and the sine-transform route, and the second with the first to decide
    the correction term.  Exponential frames have the Laplace symbol
    t/(1 + t) itself, so their ratios are 1 and
    1 - CORRECTION_WEIGHT tau t/((1 + t)(t + tau)), least at t = sqrt tau:
    the bounds are 1 and 1/(1 - CORRECTION_WEIGHT tau/(1 + sqrt tau)^2) =
    1.3044 in closed form, with no sampling.
    """
    tau = 0.5 * CORRECTION_RATE**2
    if op.law.kind == "exponential":
        return 1.0, 1.0 / (1.0 - CORRECTION_WEIGHT * tau / (1.0 + math.sqrt(tau)) ** 2)
    # log10 t; capped so that neither t nor s^2 t overflows, f is 1 there
    lo = min(2.0 * math.log10(math.pi / op.rho) - math.log10(2.0), 200.0)
    hi = min(lo + 2.0 * math.log10(op.n), 200.0)
    t = np.logspace(lo, hi, 400)
    scales, weights = op.law.width_nodes()
    symbol = -np.expm1(-np.outer(t, scales * scales)) @ weights
    plain = 1.0 + 1.0 / t
    ratios = symbol * plain, symbol * (plain - CORRECTION_WEIGHT * tau / (t + tau))
    return tuple(float(ratio.max() / ratio.min()) for ratio in ratios)


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
    n, m = op.n, op.multiplicity.size
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


def _preconditioner(op: StroboOperator) -> tuple:
    """(sine transform, Laplace coefficients, correction term) on the mirror-even half, cached.

    The one record per operator, decided from one `_symbol_condition`
    evaluation.  Where the bound for P is at most LAPLACE_COND_MAX, P is
    the untruncated Laplace operator at the same rho and grid
    (`laplace_band`), P = alpha I - s R with s = sinh(ah/2), alpha =
    1 - band_0 + s = cosh(ah/2) of that band, R_ij = r^{|i-j|} and
    r = e^{-ah}.  P^{-1} is applied in closed form (`_precondition`) from
    the coefficients (alpha, t, 4 s^2), t = 1 - r = 2 s/(alpha + s), which
    keeps its digits however small ah is; the sine transform is None, and
    the correction term of M (`_correction_term`) is kept where it lowers
    the bound, None elsewhere.  Beyond LAPLACE_COND_MAX the coefficients
    and the term are None, and M is the inverse of the sine transform of
    `_sine_transform`.
    """
    cached = _preconditioner_cache.get(op)
    if cached is None:
        bound, with_term = _symbol_condition(op)
        if bound > LAPLACE_COND_MAX:
            cached = _sine_transform(op), None, None
        else:
            s, _ = laplace_band(op)
            alpha = math.hypot(1.0, s)
            term = _correction_term(op) if with_term < bound else None
            cached = None, (alpha, 2.0 * s / (alpha + s), 4.0 * s * s), term
        _preconditioner_cache[op] = cached
    return cached


def _correction_term(op: StroboOperator) -> tuple:
    """(diagonal, off, r, up, down) of the correction term -CORRECTION_WEIGHT G of M.

    G is the untruncated Laplace cell-mean kernel matrix (`laplace_band`)
    at rate a = CORRECTION_RATE rho instead of sqrt 2 rho: G_ii =
    1 - e^{-ah/2} and G_ij = s r^{|i-j|}, s = sinh(ah/2), r = e^{-ah}.
    With R_ij = r^{|i-j|}, -CORRECTION_WEIGHT G = diagonal I + off (R + I),
    and up_k = e^{ahk}, down_k = e^{-ahk} for k below the block length of
    `_precondition`, which keeps e^{ah length} below e^{_RESCALE_EXP}.
    `_preconditioner` keeps it on the Laplace route only, and there only
    where it lowers the law's symbol-ratio bound: to 1.0245 from 1.2984 for
    deterministic frames, 1.044 from 1.262 for jitter:0.5, 1.101 from 1.187
    for twopoint:0.5,1.5,0.5.
    """
    ah = CORRECTION_RATE * op.rho / op.n
    s = math.sinh(0.5 * ah)
    length = op.n if ah * op.n <= _RESCALE_EXP else max(1, int(_RESCALE_EXP / ah))
    steps = ah * np.arange(length)
    diagonal = -CORRECTION_WEIGHT * (-math.expm1(-0.5 * ah) - 2.0 * s)
    return diagonal, -CORRECTION_WEIGHT * s, math.exp(-ah), np.exp(steps), np.exp(-steps)


def _precondition(op: StroboOperator, half: np.ndarray) -> np.ndarray:
    """First half of M b for the mirror-even b with b[:m] = half.

    On the Laplace route M b = P^{-1} b - CORRECTION_WEIGHT G b.
    R^{-1} = T/q with T = tridiag(-r, 1 + r^2, -r) but 1 in both corners and
    q = 1 - r^2 (Kac, Murdock & Szego, J. Rational Mech. Anal. 2, 1953).
    Since alpha (1 - r)^2 = s q, alpha T - s q I is alpha r L with
    L = tridiag(-1, 2, -1) but 1 + t in both corners, and
    P^{-1} = (I + 4 s^2 L^{-1})/alpha.  L^{-1}_ij = u_i v_j / D for i <= j,
    with u_i = 1 + i t, v_j = u_{N-1-j} and D = t (2 + (N-1) t) (Meurant,
    SIAM J. Matrix Anal. Appl. 13, 1992).  u and v are linear and b is
    even, so with the tails c_k = sum_{j>=k} b_j over the half (the middle
    node of odd N counted 1/2), 4 s^2 (L^{-1} b)_i = t c_0 +
    4 s^2 (c_0 + ... + c_i): two cumulative sums, of positive terms when b
    is positive.  A vanishing rho makes s^2 underflow and t c_0 negligible
    beside b, and P^{-1} is 1/alpha.  Where `_preconditioner` keeps the
    correction term, G b takes the causal sums c_i = sum_{j<=i} r^{i-j} b_j
    over the full b, as c_i = r^{i-i0} (r c_{i0-1} + sum_{i0<=j<=i}
    r^{-(j-i0)} b_j): one rescaled cumulative sum per block starting at i0.
    b is even, so the anticausal sum at i is c_{N-1-i}, and
    (R b)_i = c_i + c_{N-1-i} - b_i.  Elsewhere M is P^{-1}.

    Beyond the bound M b = sum_k s_k (s_k . b)/(lambda_k ||s_k||^2) over odd
    k = 2l + 1, with ||s_k||^2 = N/2 but N for k = N.  With the shift and
    twiddle of `_sine_transform`, s_k . b = -Im(twiddle_l FFT(shift b)_l)
    over the full even b, and sum_l d_l s_k(i) = Im(conj(shift_i) N
    IFFT(d conj(twiddle))_i): two complex FFTs of length N, with the
    factor -2/N of every d_l taken out of the sum.
    """
    sine, route, term = _preconditioner(op)
    m = half.size
    if route is None:
        lam, shift, twiddle = sine
        coef = (twiddle * np.fft.fft(shift * op.unfold(half))[:m]).imag / lam
        if op.multiplicity[-1] == 1.0:
            coef[-1] *= 0.5
        return -2.0 * (shift[:m].conj() * np.fft.ifft(coef * twiddle.conj(), op.n)[:m]).imag
    alpha, t, s2 = route
    tails = np.add.accumulate(half[::-1])[::-1]
    if op.multiplicity[-1] == 1.0:
        tails -= 0.5 * half[-1]
    z = s2 * np.add.accumulate(tails)
    z += half + t * tails[0]
    z /= alpha
    if term is None:
        return z
    diagonal, off, r, up, down = term
    causal = op.unfold(half)
    for start in range(0, op.n, up.size):
        block = causal[start : start + up.size]
        block *= up[: block.size]
        if start:
            block[0] += r * causal[start - 1]
        np.add.accumulate(block, out=block)
        block *= down[: block.size]
    z += diagonal * half
    z += off * (causal[:m] + causal[::-1][:m])
    return z


def _resolvent_solve(op: StroboOperator, rhs: np.ndarray,
                     start: np.ndarray | None = None) -> np.ndarray:
    """First half of x = (I - K)^{-1} b for the mirror-even b with b[:m] = rhs.

    x meets the normwise backward-error contract
    ||b - (I - K) x||_inf <= RESIDUAL_TOL (||I - K||_inf ||x||_inf + ||b||_inf)
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 7.1), with
    ||I - K||_inf taken as 1 - band[0] + 2 sum(band[1:]): exact once N > 2 bw,
    and at most 2.  Conjugate gradients with the positive-definite M of the
    module docstring, from x = 0 or from the half `start` (taken over, not
    copied): each step one `even_matvec` and one `_precondition`.  The
    residual of a start is formed directly, with one `even_matvec`, so it is
    the true residual, and a start that meets the bound is returned as it
    is.  Once the recursive residual meets the bound, the true residual is
    formed with one more `even_matvec`.  If it misses, it replaces the
    recursive residual and the search direction restarts from it (residual
    replacement; van der Vorst & Ye, SIAM J. Sci. Comput. 22, 2000); a
    second miss raises SolverError.  Non-positive curvature p.(I - K)p <= 0
    raises SolverError, EIGEN_MAX_ITER steps in all ConvergenceError.
    """
    mult = op.multiplicity
    norm = 1.0 - op.band[0] + 2.0 * op.band[1:].sum()
    rhs_max = np.abs(rhs).max()
    if start is None:
        x, res = np.zeros_like(rhs), rhs.copy()
    else:
        x, res = start, rhs - (start - op.even_matvec(start))
    # res is the true residual of x, not the recursive one
    true_res = True
    p = rz = None
    steps, restarted = 0, False
    while True:
        bound = RESIDUAL_TOL * (norm * np.abs(x).max() + rhs_max)
        if np.abs(res).max() <= bound:
            if not true_res:
                res, true_res = rhs - (x - op.even_matvec(x)), True
            if np.abs(res).max() <= bound:
                return x
            if restarted:
                raise SolverError(
                    f"PCG resolvent solve at rho={op.rho}: true residual "
                    f"{np.abs(res).max():.3e} exceeds the backward-error bound "
                    f"{bound:.3e} after {steps} steps and one restart"
                )
            p, restarted = None, True
        if steps == EIGEN_MAX_ITER:
            raise ConvergenceError(
                f"PCG resolvent solve at rho={op.rho}: recursive residual "
                f"{np.abs(res).max():.3e} exceeds the backward-error bound "
                f"{bound:.3e} after {steps} steps"
            )
        z = _precondition(op, res)
        rz_next = float(_dot(res, z, mult))
        p = z if p is None else np.add(z, (rz_next / rz) * p, out=z)
        rz = rz_next
        ap = op.even_matvec(p)
        np.subtract(p, ap, out=ap)
        curvature = float(_dot(p, ap, mult))
        if not curvature > 0.0:
            raise SolverError(
                f"PCG resolvent solve at rho={op.rho}: curvature p.(I - K)p = "
                f"{curvature:.3e} <= 0 at step {steps + 1} with residual "
                f"{np.abs(res).max():.3e} against the bound {bound:.3e}; "
                f"(I - K) is not positive definite, the operator exceeds unit "
                f"spectral radius"
            )
        step = rz / curvature
        x += step * p
        res -= step * ap
        steps, true_res = steps + 1, False


def _sweep_start(op: StroboOperator, previous) -> np.ndarray | None:
    """First half of a start for u = (I - K)^{-1} w from the last two (operator, u)
    pairs of a sweep, or None where the pairs do not give one.

    v_N = N u = (I - K_N)^{-1} 1.  K maps quadratics to quadratics,
    K q = B0 q + (s2/2) q'' with the row sum B0 and s2 = sum_d band_d d^2
    over both signs of d, so where B0 = 1 the interior of v_N is
    x (N - x)/s2 + const at x = i + 1/2, and near a wall v_N = (N/s2) H + Q
    with half-line functions H and Q that do not depend on N.  Operators
    with one law, bandwidth and rho/n share one band up to rounding: finite
    sections of one Toeplitz matrix, on which v_N is affine in N at each
    node away from the far wall.  So the start is
    v_p + (N - N_p)/(N_p - N_q) (v_p - v_q) on the nodes the previous two
    halves share, and past them the parabola step
    (x (N - x) - x0 (N - x0))/s2 from the last shared node x0.  None unless
    all three operators have one law, bandwidth and rho/n, the previous two
    differ in N, and B0 is 1 within 2 eps sqrt(bandwidth): a row sum off 1,
    as aliasing leaves for twopoint:0.0001,1,0.95 (1 + 5.4e-6), bends v_N
    away from the parabola and the start costs more products than it saves.
    """
    if len(previous) < 2:
        return None
    (op_q, u_q), (op_p, u_p) = previous[-2:]
    same = all(other.law == op.law and other.bandwidth == op.bandwidth
               and other.rho / other.n == op.rho / op.n for other in (op_q, op_p))
    row_sum = op.band[0] + 2.0 * op.band[1:].sum()
    rounding = 2.0 * np.finfo(float).eps * math.sqrt(op.bandwidth)
    if not same or op_p.n == op_q.n or abs(row_sum - 1.0) > rounding:
        return None
    n, m = op.n, op.multiplicity.size
    shared = min(m, u_p.size, u_q.size)
    v_p, v_q = op_p.n * u_p[:shared], op_q.n * u_q[:shared]
    start = np.empty(m)
    start[:shared] = v_p + (n - op_p.n) / (op_p.n - op_q.n) * (v_p - v_q)
    if shared < m:
        s2 = 2.0 * (np.arange(op.band.size) ** 2 @ op.band)
        x = np.arange(shared - 1, m) + 0.5
        bulk = x * (n - x)
        start[shared:] = start[shared - 1] + (bulk[1:] - bulk[0]) / s2
    return start / n


def weight_resolvent(op: StroboOperator, previous=()) -> np.ndarray:
    """First half of u = (I - K)^{-1} w, solved once per operator and cached.

    `previous` holds the (operator, u) pairs of the points of a sweep before
    this one, the last two of which may give the solve its start
    (`_sweep_start`); otherwise, and for every operator on its own, the
    solve starts from 0.  Either way u meets the contract of
    `_resolvent_solve`; a started u may differ from the zero-start one in
    the last digits.
    """
    u = _weight_resolvent_cache.get(op)
    if u is None:
        u = _resolvent_solve(op, op.weights[: op.multiplicity.size], _sweep_start(op, previous))
        u.setflags(write=False)
        _weight_resolvent_cache[op] = u
    return u


def mean_frames(op: StroboOperator, y0: float) -> ExitStats:
    """Mean frames beyond the first and E[tau] = 1 + M, for a start at y0.

    M = w . (I - K)^{-1} h(y0) = h(y0) . u, since K is symmetric, with the
    cached u = (I - K)^{-1} w: every start point after the first costs one
    kernel profile and one dot product.  u is even, so the dot product is
    that of the even half of h with u (`_dot`).
    """
    h = initial_vector(op, y0)
    M = float(_dot(op.fold(h), weight_resolvent(op), op.multiplicity))
    return ExitStats(M=M, mean_tau=1.0 + M)


def _eigen_residual(vec: np.ndarray, image: np.ndarray, mult: np.ndarray) -> tuple:
    """(lambda, K v - lambda v, its norm) for the half v of a unit vector; K v becomes the residual."""
    lam = float(_dot(vec, image, mult))
    image -= lam * vec
    return lam, image, _norm(image, mult)


def _gap_estimate(theta: np.ndarray) -> float:
    """delta = GAP_SAFETY min(theta_1 - theta_2, 8 (1 - theta_1)) from the Ritz values.

    A stand-in for the distance from lambda0 to the next even eigenvalue,
    which the Kato-Temple bound needs from below.  By interlacing theta_2 <=
    lambda_2, so the Ritz difference alone overestimates it until theta_2
    has converged (at rho = 1e5 it reads 3.9e-5 at step 3 against a gap of
    3.9e-9).  8 (1 - theta_1) is the diffusive-limit distance to the k = 3
    even mode, 1 - lambda_k ~ k^2 pi^2/(2 rho^2); the symbols are concave in
    the squared frequency, so it too lies above the gap: by 0.2-0.4% at
    rho = 100 and 5-9% at 20 on the standard laws, threefold on
    twopoint:0.001,1,0.99 at 20, where the Ritz difference is the smaller.
    At the stop dense checks find the minimum at most 1.03 times the gap
    from the half-sine start (twopoint:0.5,1.5,0.5 at rho = 30), and 1.06
    from a sweep's eigenvector start on the standard laws (sweeps by 1 or
    10 up or down over rho = 20 to 100), where theta_2 is less converged
    when the stop comes; on twopoint:0.001,1,0.99, whose band is shared
    from rho = 82, 8 (1 - theta_1) is then the minimum at 1.16 to 1.20
    times the gap.  GAP_SAFETY covers up to 1.33, so delta stays at most
    0.90 of the gap.
    """
    top = float(theta[-1])
    return GAP_SAFETY * min(top - float(theta[-2]), 8.0 * (1.0 - top))


def _extrapolation_steps(op: StroboOperator, lam: float) -> float | None:
    """The extrapolation length z, in grid steps, at which the band's symbol gives lam.

    The leading mode of a finite section of a Toeplitz band is, away
    from a wall layer, the sine sin(pi (x + z)/(N + 2z)) at x = j + 1/2,
    its length extended at each end by the Milne extrapolation length
    (Spitzer, Duke Math. J. 24, 1957; Majumdar, Comtet & Ziff, J. Stat.
    Phys. 122, 2006), and lam is the symbol band_0 + 2 sum_d band_d
    cos(d theta) at theta = pi/(N + 2z).  Newton steps from theta = pi/N,
    at most EIGEN_START_NEWTON, solve 1 - symbol = 1 - lam, with 1 - symbol taken as
    1 - row sum + 4 sum_d band_d sin^2(d theta/2) to keep its digits: the
    symbol falls and is concave in theta, so the steps fall monotonically
    to the root, and once a step moves theta by at most
    EIGEN_START_NEWTON_TOL of itself theta is within about the square of
    that, z within about 1e-8 N grid steps (2 to 3 steps at rho = 20 to
    200).  z = (pi/theta - N)/2, read off
    the band with no constant of the law: 10.49 for deterministic frames
    (18 zeta = 10.487) and 12.72 for exponential ones (18/sqrt 2 = 12.728)
    on the default grid.  None unless a step within the cap does so and
    0 < z < N.
    """
    tail = op.band[1:]
    offsets = np.arange(1, op.band.size)
    moments = 4.0 * offsets * tail
    deficit = 1.0 - op.band[0] - 2.0 * tail.sum() - (1.0 - lam)
    theta = math.pi / op.n
    for _ in range(EIGEN_START_NEWTON):
        half = 0.5 * theta * offsets
        sine = np.sin(half)
        # d/dtheta of 4 band_d sin^2(d theta/2) = 4 d band_d sin cos of d theta/2
        slope = moments @ (sine * np.cos(half))
        if not slope > 0.0:
            return None
        step = (deficit + 4.0 * (tail @ (sine * sine))) / slope
        theta -= step
        if not theta > 0.0:
            return None
        if abs(step) <= EIGEN_START_NEWTON_TOL * theta:
            z = 0.5 * (math.pi / theta - op.n)
            return z if 0.0 < z < op.n else None
    return None


def _eigen_start(op: StroboOperator, previous: StroboOperator | None) -> np.ndarray | None:
    """First half of a Davidson start from the eigenvector of the sweep's previous
    operator, or None where that gives none.

    On the default grid the operators of a sweep are finite sections of
    one Toeplitz band, whose leading mode is the shifted sine of
    `_extrapolation_steps` times a wall layer that does not depend on N.
    So the previous half v_p, of N_p and lambda0_p, is stretched node by
    node: start_j = v_p[j] sin(pi (x + z)/(N + 2z))/sin(pi (x + z)/(N_p + 2z)),
    x = j + 1/2, with z read off the previous operator's band at
    lambda0_p; past the previous half the last ratio v_p/sine carries on.
    None unless `previous` has the law and bandwidth of `op` and a
    Davidson pair of its own (`_eigen_cache`), and z is found.
    """
    if previous is None or previous.law != op.law or previous.bandwidth != op.bandwidth:
        return None
    pair = _eigen_cache.get(previous)
    z = None if pair is None else _extrapolation_steps(previous, pair[0])
    if z is None:
        return None
    half = pair[1]
    m, shared = op.multiplicity.size, min(op.multiplicity.size, half.size)
    x = np.arange(m) + (0.5 + z)
    amplitude = np.empty(m)
    amplitude[:shared] = half[:shared] / np.sin(np.pi / (previous.n + 2.0 * z) * x[:shared])
    amplitude[shared:] = amplitude[shared - 1]
    return amplitude * np.sin(np.pi / (op.n + 2.0 * z) * x)


def _davidson(op: StroboOperator, value_only: bool, previous=None) -> tuple:
    """(lambda0, first half of its unit eigenvector): the loop of `spectral_pair`.

    With `value_only` each step from the second also takes the value stop of
    `leading_eigenvalue`: its bound on the residual replaces the residual
    stop's where it is the larger, and the residual of the accumulated image
    is confirmed by a fresh product only where that bound lies within
    CONFIRM_MARGIN of the rounding floor 2 eps sqrt(m) theta.  The loop
    starts from the stretched eigenvector of `previous`, the operator of the
    sweep point before, where `_eigen_start` gives one, and otherwise from
    the half-sine sin(pi y_i), bit for bit as without `previous`; either
    way the pair is kept for the next point (`_eigen_cache`).  Over rho =
    20:200:10 the start halves the products of the value stop: 100 to 50
    for deterministic frames, 95 to 52 exponential, 114 to 46 jitter:0.5,
    114 to 45 twopoint:0.5,1.5,0.5 and 124 to 81 twopoint:0.0001,1,0.95.
    Per command: `meantau --rho-range 20:200:10` 135 to 85 products,
    `fit --which gap` 60 to 34, `spectrum --rho-range 20:120:10` 94 to 72.
    A failure names the entry point that ran.
    """
    caller = "leading_eigenvalue" if value_only else "spectral_pair"
    eps = np.finfo(float).eps
    mult = op.multiplicity
    m = mult.size
    cap = min(EIGEN_MAX_ITER + 1, m)
    floor = 2.0 * eps * math.sqrt(m)
    tol = max(EIGEN_TOL, floor)
    # row j: the basis vector v_j and its image K v_j
    pairs = np.empty((cap, 2, m))
    basis = pairs[:, 0]
    ritz = np.zeros((cap, cap))
    z = _eigen_start(op, previous)
    if z is None:
        z = np.sin(np.pi * op.grid[:m])
    for k in range(1, cap + 1):
        _extend(basis, k - 1, z, mult)
        pairs[k - 1, 1] = op.even_matvec(basis[k - 1])
        ritz[k - 1, :k] = _dot(basis[:k], pairs[k - 1, 1], mult)
        theta, coefs = np.linalg.eigh(ritz[:k, :k])
        vec, image = (coefs[:, -1] @ pairs[:k].reshape(k, 2 * m)).reshape(2, m)
        lam, res, residual = _eigen_residual(vec, image, mult)
        rel = tol
        if value_only and k > 1:
            delta = _gap_estimate(theta)
            if delta > 0.0 and lam > 0.0:
                rel = max(tol, math.sqrt(0.5 * eps * delta / lam))
        if residual <= rel * lam:
            if value_only and rel >= CONFIRM_MARGIN * floor:
                break
            # the image holds rounding from every column: confirm
            lam, res, residual = _eigen_residual(vec, op.even_matvec(vec), mult)
            if residual <= rel * lam:
                break
        # the preconditioned unit residual: at tiny rho K times a vector of
        # the residual's size underflows
        z = _precondition(op, res / residual)
    else:
        raise ConvergenceError(
            f"Davidson {caller} at rho={op.rho}: eigen residual "
            f"{residual:.3e} exceeds the bound {rel * lam:.3e} after {k - 1} steps"
        )
    if not 0.0 < lam < 1.0:
        raise SolverError(
            f"Davidson {caller} at rho={op.rho}: leading eigenvalue {lam} outside "
            f"(0, 1) after {k - 1} steps, eigen residual {residual:.3e} against the "
            f"bound {rel * lam:.3e}"
        )
    # a copy, so that the cache does not hold the image beside it
    vec = vec.copy()
    vec.setflags(write=False)
    _eigen_cache[op] = lam, vec
    return lam, vec


def spectral_pair(op: StroboOperator, y0: float | None = None,
                  previous: StroboOperator | None = None):
    """Leading eigenvalue, eigenvector and overlap amplitude of K.

    Preconditioned Davidson (Davidson, J. Comput. Phys. 17, 1975) from the
    half-sine profile (the wide-kernel limit mode), or, with `previous`, the
    operator of a sweep's point before this one, from that point's
    eigenvector stretched to this N where the two share law and bandwidth
    and the band's symbol gives the extrapolation length (`_eigen_start`):
    in a sweep by 10 from rho = 30 on, 5 to 7 products for deterministic
    frames against 7 to 9.  Otherwise it starts from the half-sine, bit for
    bit as a lone run; the stop is the same either way.  The basis V grows by
    one vector a step, M r/||r|| for the residual r of the top Ritz pair of
    V^T K V, with the M of `_precondition`, the one PCG applies (where M is
    (I - K)^{-1}, the span holds the inverse-iteration step), made
    orthonormal to V by `_extend`.  The leading mode is even, so every
    vector lives on the half of ceil(N/2) entries; the vector is unfolded
    once at the end.  Each step makes one `StroboOperator.even_matvec`, of
    the new basis vector, kept beside it in one array allocated for the
    step cap: the new row of V^T K V reads it, and the Ritz vector and its
    image come from one product.  Stops once
    ||K v - lambda0 v||_2 <= tol lambda0 for the top Ritz vector v and its
    Rayleigh quotient lambda0, confirmed with a fresh product of v, where
    tol = max(EIGEN_TOL, 2 eps sqrt(m)) on a half of m entries: lambda0 is
    an m-term dot product, whose rounding leaves a residual of order
    eps sqrt(m) lambda0 (at rho = 1e5, m = 900,000: 1.3-4.9e-13 from the
    sixth step on, against tol = 4.2e-13).  tol exceeds EIGEN_TOL only
    beyond m = 50,700, about rho = 5,600.  A caller that needs lambda0
    alone takes `leading_eigenvalue`, which stops earlier.  A basis
    of EIGEN_MAX_ITER + 1 vectors or of the order of the half without that
    raises ConvergenceError.  `a0_est` is normalized so that
    S_n ~ a0_est * lambda0^n for large n with the start point `y0`; without
    a `y0` it is None and no start profile is built.
    """
    lam, vec = _davidson(op, value_only=False, previous=previous)
    vec = op.unfold(vec)
    if vec.sum() < 0.0:
        vec = -vec
    if y0 is None:
        return lam, vec, None
    # ||vec|| == 1, so the mode expansion of S_n gives this overlap amplitude
    return lam, vec, float((op.weights @ vec) * (vec @ initial_vector(op, y0)) / lam)


def leading_eigenvalue(op: StroboOperator, previous: StroboOperator | None = None) -> float:
    """lambda0 alone: the Davidson of `spectral_pair`, stopped on the value.

    For the top Ritz value theta, its Ritz vector's residual r and any
    delta below the distance from lambda0 to the next even eigenvalue,
    |theta - lambda0| <= r^2/delta (Kato-Temple; Parlett, The Symmetric
    Eigenvalue Problem, ch. 10), so the loop stops once
    r <= sqrt((eps/2) theta delta), delta from `_gap_estimate`, or on the
    residual stop of `spectral_pair` where that is met first.  Where the
    bound on r is at least CONFIRM_MARGIN times the rounding floor
    2 eps sqrt(m) theta, the residual of the accumulated image is taken
    unconfirmed: its rounding, about that floor, adds at most a quarter of
    the bound, and the truncation error of lambda0 stays below 0.8 eps theta.  Nearer the floor
    (from about rho = 50,000) a fresh product confirms it, as in
    `spectral_pair`.  The rounding of the m-term Rayleigh quotient itself,
    up to about 2 eps sqrt(m) lambda0, is common to both stops.  Deterministic
    frames take 5 to 6 products for rho = 2 to 3000 against the 7 to 9 of
    `spectral_pair`, and 5 with the confirming one at rho = 1e5 against 7;
    the two-point laws beyond the symbol bound 5 to 9 against 7 to 13.
    `previous`, the operator of a sweep's point before this one, gives the
    start of `spectral_pair`: in a sweep by 10 from rho = 30 on, 2 to 4
    products for deterministic frames, 2 from rho = 100.  The stop is the
    same, so a started lambda0 may differ from a lone run's only within it.
    """
    return _davidson(op, value_only=True, previous=previous)[0]


def neumann_partial_sum(op: StroboOperator, y0: float, terms: int) -> float:
    """Partial series sum_{n=1}^{terms} S_n; increases monotonically to M."""
    return float(survival_sequence(op, y0, terms).values[1:].sum())


def exit_stats(op: StroboOperator, y0: float,
               previous: StroboOperator | None = None) -> ExitStats:
    """`mean_frames` at y0 with the leading eigenvalue lambda0 of
    `leading_eigenvalue` (started from `previous`'s eigenvector where it
    gives a start) and the gap 1 - lambda0, in one record."""
    base = mean_frames(op, y0)
    lam = leading_eigenvalue(op, previous)
    return ExitStats(M=base.M, mean_tau=base.mean_tau, lambda0=lam, gap=1.0 - lam)

