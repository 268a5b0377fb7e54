"""One-frame Gaussian kernel and its Nystrom discretization on (0, 1).

A confined Brownian particle observed every frame interval advances by one
application of the operator with kernel g_rho(y - z) restricted to the unit
interval, where rho = L/(sigma*sqrt(dt)) is the confinement ratio.  This
module builds that operator as a symmetric banded Toeplitz matrix on the
uniform midpoint grid y_i = (i - 1/2)/N with weights 1/N, for a fixed frame
interval (`build_operator`) or for i.i.d. random intervals averaged into an
effective kernel (`build_averaged_operator`).

`averaged_kernel` is the one evaluator of that kernel; it gives both the
matrix band and the start profile.  Discrete interval laws give exact
Gaussian mixtures and uniform jitter a Gauss-Legendre mixture, both taken
pointwise.  Exponential intervals give exactly the Laplace density
(rho/sqrt 2) e^{-sqrt 2 rho |u|} (Kotz, Kozubowski & Podgorski, The Laplace
Distribution and Generalizations, 2001), taken as exact cell means because
of its cusp at u = 0.  Every band is cut where the kernel has fallen to
e^{-eta^2/2} of its peak.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionError

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Band cutoff: the kernel is dropped where it has fallen to e^{-eta^2/2} of its
# peak, eta widths out for a Gaussian; 8.5 puts that level at ~2e-16, and the
# floor of 6 at ~1e-8.
DEFAULT_CUTOFF_ETA = 8.5

# Resolution rule: N = ceil(18*rho) grid points, floored for small rho where
# the kernel is wide but fits still need a stable minimum resolution.
GRID_FACTOR = 18.0
MIN_GRID = 64

# Gauss-Legendre nodes over the width scale of uniform jitter.
JITTER_ORDER = 64

# Grid steps per width of a Gaussian component beyond which its point samples
# alias less than eps of its mass: 2 e^{-2 pi^2 x^2} <= eps at x = 1.364.
ALIAS_STEPS = math.sqrt(math.log(2.0 / np.finfo(float).eps) / (2.0 * math.pi**2))


def default_grid_size(rho: float) -> int:
    """Grid points prescribed by the resolution rule N = max(64, ceil(18*rho))."""
    points = GRID_FACTOR * float(rho)
    if points == math.inf:
        raise ValueError(f"rho={rho} needs more than the largest float of grid points")
    return max(MIN_GRID, int(math.ceil(points)))


@dataclass(frozen=True)
class ProblemSpec:
    """Dimensionless problem instance and discretization controls.

    `n_grid=None` resolves to the resolution rule; passing an explicit value
    overrides it (too-coarse grids are rejected at build time).
    """

    rho: float
    y0: float = 0.5
    n_grid: int | None = None
    cutoff_eta: float = DEFAULT_CUTOFF_ETA

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if self.rho < np.finfo(float).tiny:
            # subnormal floats carry too few digits for the eigen bound EIGEN_TOL
            raise ValueError(
                f"rho must be at least the smallest normal float "
                f"{np.finfo(float).tiny:.17g}, got {self.rho}"
            )
        # a Python float: grid rules divide by rho, and a NumPy scalar would
        # warn where a subnormal rho overflows the quotient
        object.__setattr__(self, "rho", float(self.rho))
        if not 0.0 <= self.y0 <= 1.0:
            raise ValueError(f"y0 must lie in [0, 1], got {self.y0}")
        if not 6.0 <= self.cutoff_eta < math.inf:
            raise ValueError(
                f"cutoff_eta must be finite and >= 6 to keep truncated tails "
                f"below 1e-8 of the kernel peak, got {self.cutoff_eta}"
            )
        if self.n_grid is None:
            object.__setattr__(self, "n_grid", default_grid_size(self.rho))
        elif int(self.n_grid) < 2:
            raise ValueError(f"n_grid must be >= 2, got {self.n_grid}")
        else:
            object.__setattr__(self, "n_grid", int(self.n_grid))


_KINDS = ("deterministic", "two-point", "uniform-jitter", "exponential")


@dataclass(frozen=True)
class FrameDistribution:
    """Law of i.i.d. inter-frame intervals, normalized to unit mean.

    The mean interval defines the unit of time, so every kind is rescaled to
    mean 1 on construction; `variance` is then Var(U)/E[U]^2.  Use the
    factory classmethods rather than the bare constructor.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown frame-interval kind {self.kind!r}, expected one of {_KINDS}"
            )

    # -- factories ---------------------------------------------------------

    @classmethod
    def deterministic(cls) -> "FrameDistribution":
        return cls("deterministic")

    @classmethod
    def two_point(cls, u1: float, u2: float, p: float) -> "FrameDistribution":
        if not (0.0 < u1 < math.inf and 0.0 < u2 < math.inf):
            raise ValueError(f"two-point support must be finite and positive, got {u1}, {u2}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        return cls("two-point", (float(u1), float(u2), float(p)))

    @classmethod
    def uniform_jitter(cls, eps: float) -> "FrameDistribution":
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"jitter half-width must lie in [0, 1), got {eps}")
        return cls("uniform-jitter", (float(eps),))

    @classmethod
    def exponential(cls) -> "FrameDistribution":
        return cls("exponential")

    @classmethod
    def parse(cls, text: str) -> "FrameDistribution":
        """Parse a CLI token: deterministic | twopoint:u1,u2,p | jitter:eps | exponential."""
        name, sep, arg = text.partition(":")
        name = name.strip().lower()
        if name in ("deterministic", "exponential"):
            if sep:
                raise ValueError(f"{name} takes no argument, got {text!r}")
            return cls(name)
        if name == "jitter":
            return cls.uniform_jitter(float(arg))
        if name == "twopoint":
            u1, u2, p = (float(x) for x in arg.split(","))
            return cls.two_point(u1, u2, p)
        raise ValueError(f"unknown distribution {text!r}")

    def describe(self) -> str:
        if self.kind == "two-point":
            return "twopoint:%g,%g,%g" % self.params
        if self.kind == "uniform-jitter":
            return "jitter:%g" % self.params
        return self.kind

    # -- moments -----------------------------------------------------------

    @property
    def variance(self) -> float:
        if self.kind == "two-point":
            u1, u2, p = self.params
            m = p * u1 + (1.0 - p) * u2
            return p * (1.0 - p) * ((u1 - u2) / m) ** 2
        if self.kind == "uniform-jitter":
            return self.params[0] ** 2 / 3.0
        if self.kind == "exponential":
            return 1.0
        return 0.0

    # -- structure ---------------------------------------------------------

    def width_nodes(self):
        """Mixture nodes for the per-step width scale s = sqrt(v).

        Returns (scales, weights) with weights normalized to total mass 1.
        Discrete kinds are exact; uniform jitter uses JITTER_ORDER-node
        Gauss-Legendre in s on its support, which keeps the integrand smooth.
        The exponential kind has no node set: its mixture is the closed-form
        Laplace density (see `averaged_kernel`), so it raises ValueError.
        """
        if self.kind == "deterministic":
            return np.array([1.0]), np.array([1.0])
        if self.kind == "two-point":
            u1, u2, p = self.params
            if u1 == u2 or p == 1.0 or p == 0.0:
                return np.array([1.0]), np.array([1.0])
            m = p * u1 + (1.0 - p) * u2
            return np.sqrt(np.array([u1 / m, u2 / m])), np.array([p, 1.0 - p])
        if self.kind == "exponential":
            raise ValueError(
                "exponential intervals mix to the closed-form Laplace kernel "
                "and have no width nodes"
            )
        eps = self.params[0]
        if eps == 0.0:
            return np.array([1.0]), np.array([1.0])
        nodes, glw = _gauss_legendre()
        lo, hi = math.sqrt(1.0 - eps), math.sqrt(1.0 + eps)
        s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * glw * (2.0 * s) / (2.0 * eps)
        return s, w / w.sum()

    def sample_intervals(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """Draw unit-mean intervals for Monte Carlo stepping."""
        if self.kind == "deterministic":
            return np.ones(size)
        if self.kind == "two-point":
            u1, u2, p = self.params
            m = p * u1 + (1.0 - p) * u2
            return np.where(gen.random(size) < p, u1 / m, u2 / m)
        if self.kind == "uniform-jitter":
            eps = self.params[0]
            return 1.0 - eps + 2.0 * eps * gen.random(size)
        return gen.standard_exponential(size)


# -- kernel evaluation --------------------------------------------------------


@functools.cache
def _gauss_legendre():
    """JITTER_ORDER Gauss-Legendre nodes and weights on [-1, 1], computed once."""
    nodes, weights = np.polynomial.legendre.leggauss(JITTER_ORDER)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _laplace_cell_mean(u: np.ndarray, a: float, h: float) -> np.ndarray:
    """Mean of the Laplace density (a/2) e^{-a|t|} over [u - h/2, u + h/2].

    A cell clear of the origin holds e^{-a|u|} sinh(ah/2)/h.  The cell that
    straddles it holds (1 - e^{-ah/2} cosh(au))/h, written with expm1 and
    cosh - 1 = 2 sinh^2(au/2) so that nothing cancels.  Both depend on |u|
    alone, so profiles at mirrored offsets are exactly mirrored.
    """
    x = np.abs(u)
    half = 0.5 * a * h
    out = np.exp(-a * x) * (math.sinh(half) / h)
    mid = x < 0.5 * h
    out[mid] = (
        -math.expm1(-half) - math.exp(-half) * 2.0 * np.sinh(0.5 * a * x[mid]) ** 2
    ) / h
    return out


def averaged_kernel(u: np.ndarray, rho: float, law: FrameDistribution, h: float):
    """One-frame kernel averaged over the interval law, at offsets u.

    The exponential law gives the exact means of the Laplace density
    (rho/sqrt 2) e^{-sqrt 2 rho |u|} over cells of width h centred on u;
    every other law gives the pointwise Gaussian mixture
    sum_q w_q g_{rho/s_q}(u) over its `width_nodes`, and ignores h.
    """
    u = np.asarray(u, dtype=float)
    if law.kind == "exponential":
        return _laplace_cell_mean(u, _SQRT_2 * rho, h)
    scales, mix_w = law.width_nodes()
    r = rho / scales
    vals = (r / _SQRT_2PI) * np.exp(-0.5 * (u[..., None] * r) ** 2)
    return vals @ mix_w


@dataclass(frozen=True, eq=False)
class StroboOperator:
    """Nystrom matrix of the one-frame operator in banded Toeplitz storage.

    Entries are K[i, j] = band[|i - j|] for |i - j| <= bandwidth =
    band.size - 1 and zero beyond, on the n-point midpoint grid y_i =
    (i - 1/2)/n with the uniform quadrature weights 1/n; `band` already
    includes that weight, and `law` is the frame-interval law whose
    `averaged_kernel` it holds.  The grid and the weights follow from n, so
    both are mirror-even by construction.  The instance is immutable and
    safe to share across threads.
    """

    rho: float
    n: int
    band: np.ndarray
    law: FrameDistribution
    grid: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    _sym_band: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = {
            "grid": (np.arange(1, self.n + 1) - 0.5) / self.n,
            "weights": np.full(self.n, 1.0 / self.n),
            "_sym_band": np.concatenate([self.band[:0:-1], self.band]),
        }
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        for arr in (self.band, *arrays.values()):
            arr.setflags(write=False)

    @property
    def bandwidth(self) -> int:
        return self.band.size - 1

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Banded Toeplitz matrix-vector product via direct convolution."""
        full = np.convolve(np.asarray(vec, dtype=float), self._sym_band)
        return full[self.bandwidth : self.bandwidth + self.n]

    def even_matvec(self, half: np.ndarray) -> np.ndarray:
        """First m = ceil(N/2) entries of K x for the mirror-even x with x[:m] = half.

        K commutes with the reflection (J x)_i = x_{N-1-i}, so K x is even
        too and its first half is its whole content.  Rows i < m read x only
        up to index m - 1 + bandwidth: the half, then at most `bandwidth`
        entries of its mirror image x[m:] = half[N-m-1::-1], zero beyond the
        grid.  One 'valid' convolution takes about 45% of the multiply-adds
        of `matvec`.
        """
        bw, n = self.bandwidth, self.n
        m = (n + 1) // 2
        half = np.asarray(half, dtype=float)
        if half.shape != (m,):
            raise ValueError(f"expected the {m} entries of an even half, got shape {half.shape}")
        padded = np.zeros(m + 2 * bw)
        padded[bw : bw + m] = half
        tail = half[n - m - 1 :: -1][:bw]
        padded[bw + m : bw + m + tail.size] = tail
        return np.convolve(padded, self._sym_band, "valid")

    def row_sums(self) -> np.ndarray:
        """Per-row survival mass sum_j K[i, j]; sub-stochastic (< 1 leaks out)."""
        return self.matvec(np.ones(self.n))

    def toarray(self) -> np.ndarray:
        """Dense matrix; for tests and small problems only."""
        offsets = np.abs(np.subtract.outer(np.arange(self.n), np.arange(self.n)))
        dense = np.where(offsets <= self.bandwidth,
                         self.band[np.minimum(offsets, self.bandwidth)], 0.0)
        return dense


def laplace_band(op: StroboOperator) -> tuple[float, float]:
    """(s, r) of the exponential-frame band at the operator's rho and grid, for any law.

    With a = sqrt 2 rho and h = 1/N, s = sinh(ah/2) and r = e^{-ah}: the
    cell means of `_laplace_cell_mean` times h, so exponential frames have
    band[d] = s r^d for 1 <= d <= bandwidth.  The untruncated Laplace
    operator P = (1 - band_0 + s) I - s R, R_ij = r^{|i-j|}, is the
    preconditioner of every law within the symbol-ratio bound that the
    `resolvent` module docstring states.
    """
    ah = _SQRT_2 * op.rho / op.n
    return math.sinh(0.5 * ah), math.exp(-ah)


def _band_width(spec: ProblemSpec, law: FrameDistribution) -> int:
    """Offsets kept in the band: the kernel tail is cut at e^{-eta^2/2} of its peak.

    The reach is clamped to n - 1 before it is floored, so a huge eta gives
    the full band where the float product reaches inf.
    """
    # Python floats: an overflow gives inf, never a NumPy warning
    eta, rho, n = float(spec.cutoff_eta), float(spec.rho), spec.n_grid
    if law.kind == "exponential":
        # e^{-sqrt 2 rho u} reaches e^{-eta^2/2} at u = eta^2 / (2 sqrt 2 rho);
        # eta/rho first, so that a finite reach never overflows on the way
        reach = eta / (2.0 * _SQRT_2 * rho) * eta * n
    else:
        # eta widths of the widest Gaussian component
        s_max = float(np.max(law.width_nodes()[0]))
        reach = eta * s_max * n / rho
    return math.floor(min(reach, n - 1))


def _build(spec: ProblemSpec, law: FrameDistribution) -> StroboOperator:
    """The operator of `build_averaged_operator`, refused where the grid cannot carry it.

    ResolutionError, naming the grid size needed, where the band spans
    fewer than 4 grid steps, where the narrowest Gaussian component does,
    and where the narrowest component aliases the operator past unit
    spectral radius.  Point samples of a Gaussian of width x grid steps sum
    to its mass times 1 + 2 e^{-2 pi^2 x^2} + ... (Poisson summation), so a
    narrow component can lift the row sums above 1.  Below ALIAS_STEPS
    steps, where that excess is not negligible, the operator is refused if
    the Rayleigh quotient of the half-sine profile reaches 1: that proves
    its leading eigenvalue is at least 1, and then S_n grows without bound
    and I - K has no positive-definite solve.  Row sums above 1 alone are
    admitted: where the leak of the wider components outweighs the excess,
    the leading eigenvalue stays below 1.
    """
    n, rho = spec.n_grid, spec.rho
    bw = _band_width(spec, law)
    if bw < 4:
        raise ResolutionError(
            f"n_grid={n} resolves the kernel core with only {bw} grid steps "
            f"at rho={rho}; need at least 4 (resolution rule: "
            f"N >= {default_grid_size(rho)})"
        )
    s_min = math.inf
    if law.kind != "exponential":
        # the narrowest Gaussian component needs the same 4 steps as the widest
        s_min = float(np.min(law.width_nodes()[0]))
        steps = spec.cutoff_eta * s_min * n / rho
        if steps < 4:
            need = 4.0 * rho / (spec.cutoff_eta * s_min) if s_min else math.inf
            raise ResolutionError(
                f"n_grid={n} resolves the narrowest interval component (width "
                f"scale {s_min:.3g}) with only {math.floor(steps)} grid steps at rho={rho}; "
                f"need at least 4 (N >= {np.ceil(need):.4g})"
            )
    offsets = np.arange(bw + 1) / n
    op = StroboOperator(
        rho=rho,
        n=n,
        band=averaged_kernel(offsets, rho, law, 1.0 / n) / n,
        law=law,
    )
    if s_min * n / rho < ALIAS_STEPS:
        probe = np.sin(np.pi * op.grid)
        quotient = probe @ op.matvec(probe) / (probe @ probe)
        if quotient >= 1.0:
            raise ResolutionError(
                f"n_grid={n} aliases the narrowest interval component (width scale "
                f"{s_min:.3g}, {s_min * n / rho:.3g} grid steps wide) at rho={rho}: "
                f"the half-sine Rayleigh quotient {quotient:.6f} shows the operator "
                f"exceeds unit spectral radius; need at least {ALIAS_STEPS:.3g} grid steps "
                f"(N >= {math.ceil(ALIAS_STEPS * rho / s_min)})"
            )
    return op


def build_operator(spec: ProblemSpec) -> StroboOperator:
    """Discretize the fixed-interval operator on the midpoint grid."""
    return _build(spec, FrameDistribution.deterministic())


def build_averaged_operator(spec: ProblemSpec, mu: FrameDistribution) -> StroboOperator:
    """Discretize the interval-averaged operator for random frame times.

    The effective kernel is the mixture of Gaussians with width scale
    sqrt(v)/rho over v ~ mu, evaluated by `averaged_kernel`.  Discrete
    mixtures are exact; the deterministic kind reproduces `build_operator`
    bit for bit.  Exponential intervals give the Laplace density, entered as
    exact cell integrals: node values would overshoot the row sums at its
    cusp, while cell integrals keep the matrix sub-stochastic.  The band is
    cut at the relative tail e^{-eta^2/2}: eta widths of the widest Gaussian
    component, or eta^2/(2 sqrt 2 rho) for the Laplace density.
    """
    return _build(spec, mu)
