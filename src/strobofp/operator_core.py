"""One-frame Gaussian kernel and its Nystrom discretization on (0, 1).

A confined Brownian particle observed every frame interval advances by one
application of the operator with kernel g_rho(y - z) restricted to the unit
interval, where rho = L/(sigma*sqrt(dt)) is the confinement ratio.  This
module builds that operator as a symmetric banded Toeplitz matrix on the
uniform midpoint grid y_i = (i - 1/2)/N with weights 1/N, for a fixed frame
interval (`build_operator`) or for i.i.d. random intervals averaged into an
effective kernel (`build_averaged_operator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ResolutionError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Band cutoff in units of the kernel width; 8.5 puts the truncated tail below
# 1e-8 of the peak (e^{-eta^2/2} ~ 2e-16 at 8.5, the 1e-8 level sits at 6).
DEFAULT_CUTOFF_ETA = 8.5

# Resolution rule: N = ceil(18*rho) grid points, floored for small rho where
# the kernel is wide but fits still need a stable minimum resolution.
GRID_FACTOR = 18.0
MIN_GRID = 64

# Probability mass discarded on each side when truncating an unbounded
# interval distribution to a finite quadrature range.
_QUANTILE_TAIL = 1e-8


def default_grid_size(rho: float) -> int:
    """Grid points prescribed by the resolution rule N = max(64, ceil(18*rho))."""
    return max(MIN_GRID, int(math.ceil(GRID_FACTOR * rho)))


def gaussian_kernel(u, rho: float):
    """One-frame displacement density (rho/sqrt(2*pi)) * exp(-rho^2 u^2 / 2).

    Symmetric in u and normalized to unit mass over the real line.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    u = np.asarray(u, dtype=float)
    out = (rho / _SQRT_2PI) * np.exp(-0.5 * (rho * u) ** 2)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionful description: interval length, noise scale, frame interval.

    The diffusion constant is always the derived D = sigma^2/2; it is exposed
    as a property so it can never be set inconsistently.
    """

    L: float
    sigma: float
    dt: float

    def __post_init__(self):
        for name in ("L", "sigma", "dt"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def D(self) -> float:
        return 0.5 * self.sigma**2

    @property
    def rho(self) -> float:
        return self.L / (self.sigma * math.sqrt(self.dt))


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
        if u1 <= 0 or u2 <= 0:
            raise ValueError("two-point support must be positive")
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
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        if name == "deterministic":
            return cls.deterministic()
        if name == "exponential":
            return cls.exponential()
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
    def mean(self) -> float:
        return 1.0

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

    @property
    def has_cusp(self) -> bool:
        """True when the v -> 0 support makes the averaged kernel non-smooth."""
        return self.kind == "exponential"

    @property
    def v_upper(self) -> float:
        """Largest interval entering the mixture (upper quantile if unbounded)."""
        if self.kind == "two-point":
            u1, u2, p = self.params
            m = p * u1 + (1.0 - p) * u2
            return max(u1, u2) / m
        if self.kind == "uniform-jitter":
            return 1.0 + self.params[0]
        if self.kind == "exponential":
            return -math.log(_QUANTILE_TAIL)
        return 1.0

    def width_nodes(self, order: int = 64):
        """Mixture nodes for the per-step width scale s = sqrt(v).

        Returns (scales, weights) with weights normalized to total mass 1.
        Discrete kinds are exact; continuous kinds use fixed-order
        Gauss-Legendre in s on the (quantile-truncated) support, which keeps
        the integrand smooth down to v -> 0.
        """
        if self.kind == "deterministic":
            return np.array([1.0]), np.array([1.0])
        if self.kind == "two-point":
            u1, u2, p = self.params
            if u1 == u2 or p == 1.0 or p == 0.0:
                return np.array([1.0]), np.array([1.0])
            m = p * u1 + (1.0 - p) * u2
            return np.sqrt(np.array([u1 / m, u2 / m])), np.array([p, 1.0 - p])
        if order < 16:
            raise ValueError(
                f"continuous mixtures need quadrature order >= 16, got {order}"
            )
        nodes, glw = np.polynomial.legendre.leggauss(int(order))
        if self.kind == "uniform-jitter":
            eps = self.params[0]
            if eps == 0.0:
                return np.array([1.0]), np.array([1.0])
            lo, hi = math.sqrt(1.0 - eps), math.sqrt(1.0 + eps)
            s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * glw * (2.0 * s) / (2.0 * eps)
        else:  # exponential
            lo = math.sqrt(-math.log1p(-_QUANTILE_TAIL))
            hi = math.sqrt(-math.log(_QUANTILE_TAIL))
            s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * glw * (2.0 * s) * np.exp(-(s**2))
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


# -- kernel evaluation helpers ----------------------------------------------


def _mixture_kernel(u: np.ndarray, rho: float, scales: np.ndarray, mix_w: np.ndarray):
    """Pointwise mixture kernel sum_q w_q g_{rho/s_q}(u)."""
    r = rho / scales
    vals = (r / _SQRT_2PI) * np.exp(-0.5 * (u[..., None] * r) ** 2)
    return vals @ mix_w


def _mixture_cell_average(
    u: np.ndarray, rho: float, scales: np.ndarray, mix_w: np.ndarray, h: float
):
    """Mean of the mixture kernel over cells [u - h/2, u + h/2] (exact per node)."""
    r = rho / scales
    upper = ndtr((u[..., None] + 0.5 * h) * r)
    lower = ndtr((u[..., None] - 0.5 * h) * r)
    return ((upper - lower) @ mix_w) / h


@dataclass(frozen=True, eq=False)
class StroboOperator:
    """Nystrom matrix of the one-frame operator in banded Toeplitz storage.

    Entries are K[i, j] = band[|i - j|] for |i - j| <= bandwidth and zero
    beyond; `band` already includes the uniform quadrature weight 1/N.  The
    instance is immutable and safe to share across threads.
    """

    rho: float
    grid: np.ndarray
    weights: np.ndarray
    band: np.ndarray
    bandwidth: int
    width_scales: np.ndarray
    width_weights: np.ndarray
    cell_averaged: bool = False
    _sym_band: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sym = np.concatenate([self.band[:0:-1], self.band])
        object.__setattr__(self, "_sym_band", sym)
        for arr in (self.grid, self.weights, self.band, self.width_scales,
                    self.width_weights, sym):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.grid.size

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Banded Toeplitz matrix-vector product via direct convolution."""
        full = np.convolve(np.asarray(vec, dtype=float), self._sym_band)
        return full[self.bandwidth : self.bandwidth + self.n]

    def row_sums(self) -> np.ndarray:
        """Per-row survival mass sum_j K[i, j]; sub-stochastic (< 1 leaks out)."""
        return self.matvec(np.ones(self.n))

    def toarray(self) -> np.ndarray:
        """Dense matrix; for tests and small problems only."""
        offsets = np.abs(np.subtract.outer(np.arange(self.n), np.arange(self.n)))
        dense = np.where(offsets <= self.bandwidth,
                         self.band[np.minimum(offsets, self.bandwidth)], 0.0)
        return dense


def _band_width(eta: float, s_max: float, rho: float, n_grid: int) -> int:
    return min(int(math.floor(eta * s_max * n_grid / rho)), n_grid - 1)


def _midpoint_grid(n_grid: int) -> np.ndarray:
    return (np.arange(1, n_grid + 1) - 0.5) / n_grid


def _build(spec: ProblemSpec, scales, mix_w, cell_averaged: bool) -> StroboOperator:
    n = spec.n_grid
    bw = _band_width(spec.cutoff_eta, float(np.max(scales)), spec.rho, n)
    if bw < 4:
        raise ResolutionError(
            f"n_grid={n} resolves the kernel core with only {bw} grid steps "
            f"at rho={spec.rho}; need at least 4 (resolution rule: "
            f"N >= {default_grid_size(spec.rho)})"
        )
    offsets = np.arange(bw + 1) / n
    if cell_averaged:
        # Cusped kernels (v -> 0 mixture support) overshoot row sums with
        # node values; exact cell integrals keep the matrix sub-stochastic.
        band = _mixture_cell_average(offsets, spec.rho, scales, mix_w, 1.0 / n) / n
    else:
        band = _mixture_kernel(offsets, spec.rho, scales, mix_w) / n
    return StroboOperator(
        rho=spec.rho,
        grid=_midpoint_grid(n),
        weights=np.full(n, 1.0 / n),
        band=band,
        bandwidth=bw,
        width_scales=np.asarray(scales, dtype=float),
        width_weights=np.asarray(mix_w, dtype=float),
        cell_averaged=cell_averaged,
    )


def build_operator(spec: ProblemSpec) -> StroboOperator:
    """Discretize the fixed-interval operator on the midpoint grid."""
    return _build(spec, np.array([1.0]), np.array([1.0]), cell_averaged=False)


def build_averaged_operator(spec: ProblemSpec, mu: FrameDistribution) -> StroboOperator:
    """Discretize the interval-averaged operator for random frame times.

    The effective kernel is the mixture of Gaussians with width scale
    sqrt(v)/rho over v ~ mu.  Discrete mixtures are evaluated exactly; the
    deterministic kind reproduces `build_operator` bit for bit.  The band
    cutoff scales with the widest mixture component.
    """
    scales, mix_w = mu.width_nodes()
    return _build(spec, scales, mix_w, cell_averaged=mu.has_cusp)
