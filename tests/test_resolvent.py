"""Resolvent solves, survival sequences and the leading spectral pair."""

import math

import numpy as np
import pytest

from strobofp import (
    GAP_BETA,
    ConvergenceError,
    FrameDistribution,
    ProblemSpec,
    SolverError,
    build_averaged_operator,
    build_operator,
    exit_stats,
    initial_vector,
    leading_eigenvalue,
    mean_frames,
    neumann_partial_sum,
    spectral_pair,
    survival_sequence,
)
from strobofp import resolvent
from strobofp.operator_core import (
    DEFAULT_CUTOFF_ETA,
    StroboOperator,
    _band_width,
    averaged_kernel,
)
from strobofp.resolvent import (
    EIGEN_MAX_ITER,
    EIGEN_TOL,
    LAPLACE_COND_MAX,
    RESIDUAL_TOL,
    _preconditioner,
    _resolvent_solve,
    weight_resolvent,
)
from normal_cdf import ndtr


def op_for(rho, **kwargs):
    return build_operator(ProblemSpec(rho=rho, **kwargs))


# the laws of the value stop's contract: the four of LAWS, a wider two-point
# law within the symbol bound and one on the sine-transform route
VALUE_LAWS = ["deterministic", "exponential", "jitter:0.5", "twopoint:0.5,1.5,0.5",
              "twopoint:0.2,1,0.5", "twopoint:0.001,1,0.99"]


@pytest.fixture(scope="module")
def floor_op():
    """The deterministic operator at rho = 1e5: N = 1.8e6, m = 900,000."""
    return op_for(1e5)


def assert_gap_expansion(rho, lam):
    # the closed-form expansion overshoots the true gap by ~2.7/rho relative
    expansion = math.pi**2 / (2.0 * rho**2) + GAP_BETA / rho**3
    assert abs(expansion - (1.0 - lam)) / (1.0 - lam) <= 10.0 / rho


def record_value_stop(monkeypatch):
    """Lists of the relative eigen residual of each Davidson residual check, and
    of the value stop's delta and its bound on that residual,
    sqrt((eps/2) delta/theta), at each step from the second."""
    residuals, deltas, reaches = [], [], []
    eigen_residual, gap_estimate = resolvent._eigen_residual, resolvent._gap_estimate

    def recorded_residual(vec, image, mult):
        lam, res, residual = eigen_residual(vec, image, mult)
        residuals.append(residual / lam)
        return lam, res, residual

    def recorded_gap(theta):
        delta = gap_estimate(theta)
        deltas.append(delta)
        reaches.append(math.sqrt(0.5 * np.finfo(float).eps * delta / float(theta[-1])))
        return delta

    monkeypatch.setattr(resolvent, "_eigen_residual", recorded_residual)
    monkeypatch.setattr(resolvent, "_gap_estimate", recorded_gap)
    return residuals, deltas, reaches


def even_block(dense):
    """The mirror-even block Q^T K Q of a dense K, Q the orthonormal even basis
    (e_i + e_{N-1-i})/sqrt 2, with e_i alone for the middle node of odd N."""
    n = dense.shape[0]
    q = np.zeros((n, (n + 1) // 2))
    q[np.arange(q.shape[1]), np.arange(q.shape[1])] = 1.0
    q[n - 1 - np.arange(q.shape[1]), np.arange(q.shape[1])] = 1.0
    q /= np.linalg.norm(q, axis=0)
    return q.T @ dense @ q


class TestInitialVector:
    def test_palindromic_for_centered_start(self):
        op = op_for(4.0)
        h = initial_vector(op, 0.5)
        assert np.allclose(h, h[::-1], rtol=1e-12)

    def test_one_step_survival_closed_form(self):
        # w . h equals Phi(rho(1-y0)) - Phi(-rho y0) up to quadrature error
        cases = [(2.0, 0.5, 1e-4), (10.0, 0.5, 1e-7), (10.0, 0.0, 1e-9)]
        for rho, y0, tol in cases:
            op = op_for(rho)
            s1 = float(op.weights @ initial_vector(op, y0))
            exact = ndtr(rho * (1.0 - y0)) - ndtr(-rho * y0)
            assert s1 == pytest.approx(exact, abs=tol)

    def test_normal_cdf_table_value(self):
        op = op_for(2.0)
        s1 = float(op.weights @ initial_vector(op, 0.5))
        assert s1 == pytest.approx(0.6826895, abs=1e-4)

    def test_exponential_profile_is_exactly_even(self):
        # every offset y_i - 1/2 on N = 64 is exact, so the centred profile
        # has no odd part: its first half carries all of it to the solver
        op = build_averaged_operator(ProblemSpec(rho=0.05), FrameDistribution.exponential())
        h = initial_vector(op, 0.5)
        assert np.array_equal(h, h[::-1])
        x = np.linalg.solve(np.eye(op.n) - op.toarray(), h)
        assert _resolvent_solve(op, h[:32]) == pytest.approx(x[:32], rel=1e-12, abs=0.0)

    def test_rejects_start_outside_interval(self):
        with pytest.raises(ValueError):
            initial_vector(op_for(2.0), 1.2)


class TestSurvivalSequence:
    def test_starts_at_one_and_decreases(self):
        series = survival_sequence(op_for(6.0), 0.5, 200)
        values = series.values
        assert values[0] == 1.0
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) <= 1e-15)

    def test_wide_kernel_exits_in_one_frame(self):
        series = survival_sequence(op_for(0.01), 0.5, 3)
        assert series.values[1] == pytest.approx(0.004, abs=5e-4)

    def test_single_step_matches_normal_cdf(self):
        series = survival_sequence(op_for(10.0), 0.5, 1)
        assert series.values[1] == pytest.approx(1.0 - 5.733e-7, abs=1e-7)

    def test_ratio_converges_to_lambda0(self):
        op = op_for(6.0)
        lam, _, _ = spectral_pair(op)
        values = survival_sequence(op, 0.5, 60).values
        ratios = values[2:] / values[1:-1]
        assert abs(ratios[-1] - lam) < 1e-9
        # geometric approach: late ratios are closer than early ones
        assert abs(ratios[-1] - lam) < abs(ratios[5] - lam)

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            survival_sequence(op_for(2.0), 0.5, 0)


def plain_recursion(op, y0, n_max):
    """S_0..S_nmax by one half-grid product per frame, as survival_sequence makes its head."""
    m = (op.n + 1) // 2
    weights = op.weights[:m] * np.where(np.arange(m) < op.n // 2, 2.0, 1.0)
    h = initial_vector(op, y0)
    vec = 0.5 * (h[:m] + h[::-1][:m])
    values = [1.0]
    for n in range(1, n_max + 1):
        values.append(weights @ vec)
        if n < n_max:
            vec = op.even_matvec(vec)
    return np.array(values)


def count_even_products(monkeypatch):
    """A list that grows by one entry per StroboOperator.even_matvec call."""
    calls = []
    even_matvec = StroboOperator.even_matvec

    def counted(self, half):
        calls.append(1)
        return even_matvec(self, half)

    monkeypatch.setattr(StroboOperator, "even_matvec", counted)
    return calls


def count_start_profiles(monkeypatch):
    """A list that grows by one entry per resolvent.initial_vector call."""
    calls = []

    def counted(op, y0):
        calls.append(y0)
        return initial_vector(op, y0)

    monkeypatch.setattr(resolvent, "initial_vector", counted)
    return calls


class TestSurvivalTail:
    @pytest.mark.parametrize("rho, y0", [(20.0, 0.5), (40.0, 0.0), (100.0, 0.5)])
    def test_head_is_the_plain_recursion(self, rho, y0):
        # the switch point n0 is at least ceil(rho): the frames before it
        # are the recursion's, bit for bit
        op = op_for(rho)
        n0 = math.ceil(rho)
        values = survival_sequence(op, y0, 20 * n0).values
        assert np.array_equal(values[: n0 + 1], plain_recursion(op, y0, n0))

    @pytest.mark.parametrize("y0", [0.5, 0.0])
    @pytest.mark.parametrize("dist", ["deterministic", "exponential", "twopoint:0.5,1.5,0.5"])
    @pytest.mark.parametrize("rho", [20.0, 40.0])
    def test_tail_matches_dense_spectral_sum(self, rho, dist, y0):
        # S_n = sum_i (w . v_i)(v_i . h) lambda_i^{n-1} from a dense eigh, out
        # to n = 10 rho^2, where S_n has fallen to about e^{-49}; at every n
        # up to about 200, past the switch and the Lanczos steps, and at
        # geometrically spaced n beyond
        op = law_op(rho, dist)
        n_max = int(10 * rho * rho)
        lam, vecs = np.linalg.eigh(op.toarray())
        amplitudes = (op.weights @ vecs) * (initial_vector(op, y0) @ vecs)
        ns = np.unique(np.geomspace(1, n_max, 2000).round().astype(int))
        expected = (amplitudes * lam ** (ns[:, None] - 1)).sum(axis=1)
        values = survival_sequence(op, y0, n_max).values
        assert values[ns] == pytest.approx(expected, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("y0", [0.5, 0.0])
    def test_tail_matches_the_recursion_at_large_rho(self, y0):
        # beyond a dense solve: the recursion, whose drift is about 7e-17 n,
        # is the reference; ten Lanczos steps are too few here, and the bound
        # asks for about forty
        op = op_for(100.0)
        values = survival_sequence(op, y0, 2000).values
        assert values == pytest.approx(plain_recursion(op, y0, 2000), rel=1e-11, abs=0.0)

    def test_tail_at_the_rho_squared_horizon(self, monkeypatch):
        # rho = 300 out to n = rho^2: recursion to n0 = 300, then a hundred
        # Lanczos steps; the tail decays at the leading eigenvalue, never rising
        op = op_for(300.0)
        lam = spectral_pair(op)[0]
        calls = count_even_products(monkeypatch)
        values = survival_sequence(op, 0.5, 90000).values
        assert len(calls) <= 400
        assert abs(values[-1] / values[-2] - lam) <= 1e-13
        assert np.all(np.diff(values) <= 1e-12)

    def test_products_stop_at_the_tail(self, monkeypatch):
        # recursion to n0 = 100, then a few tens of Lanczos steps, not 1999 products
        calls = count_even_products(monkeypatch)
        survival_sequence(op_for(100.0), 0.5, 2000)
        assert len(calls) <= 200

    def test_short_sequence_makes_no_try(self, monkeypatch):
        # n_max <= n0 + EIGEN_MAX_ITER: one product per frame, nothing else
        calls = count_even_products(monkeypatch)
        survival_sequence(op_for(100.0), 0.5, 200)
        assert len(calls) == 199

    def test_missed_bound_carries_on_with_the_recursion(self, monkeypatch):
        # every try refused: the tries at n0 = 20, 40, 80 and 160 leave the
        # sequence exactly the recursion's
        tries = []

        def refuse(*args):
            tries.append(1)
            return False

        monkeypatch.setattr(resolvent, "_last_frame_bound_holds", refuse)
        op = op_for(20.0)
        values = survival_sequence(op, 0.5, 300).values
        assert np.array_equal(values, plain_recursion(op, 0.5, 300))
        assert len(tries) == 4 * EIGEN_MAX_ITER // resolvent.TAIL_CHECK_STEPS

    def test_supercritical_operator_raises(self):
        # row sums 1.2: the top Ritz value proves an eigenvalue above 1
        with pytest.raises(SolverError, match=(
                rf"Lanczos survival tail at rho=1\.0: Ritz value {_NUMBER} >= 1 after "
                rf"\d+ steps; the operator exceeds unit spectral radius")):
            survival_sequence(supercritical_op(), 0.5, 200)


class TestDegenerateBranches:
    def test_lanczos_tail_from_a_zero_state(self):
        op = op_for(20.0)
        m = (op.n + 1) // 2
        tail = np.full(50, np.nan)
        assert resolvent._lanczos_tail(op, np.zeros(m), np.ones(m) / op.n, tail)
        assert not tail.any()

    def test_last_frame_bound_fails_without_a_norm_bound_below_one(self):
        theta, ones = np.array([0.5, 0.9]), np.ones(2)
        assert resolvent._last_frame_bound_holds(theta, ones, 0.0 * ones, 0.95, 10)
        for lam_bar in (1.0, 1.5):
            assert not resolvent._last_frame_bound_holds(theta, ones, 0.0 * ones, lam_bar, 10)

    @pytest.mark.parametrize("n", [6, 7])
    def test_norm_at_zero_and_extreme_scales(self, n, monkeypatch):
        # sums of squares that underflow (1e-160, 1e-170) or overflow
        # (1e+160, 1e+200) take the scaled fallback, without a warning from
        # the overflowing plain sum, and no scale enters np.errstate; the
        # reference scales by an exact power of two
        def fail(**kwargs):
            raise AssertionError("_norm entered np.errstate")

        monkeypatch.setattr(np, "errstate", fail)
        mult = resolvent._multiplicity(n)
        assert resolvent._norm(np.zeros(mult.size), mult) == 0.0
        v = np.random.default_rng(3).standard_normal(mult.size)
        for scale, power in ((1e-160, 2.0**532), (1e160, 2.0**-532), (1e-170, 2.0**565),
                             (1e200, 2.0**-665), (1.0, 1.0)):
            z = scale * v
            exact = math.sqrt(math.fsum(mult * (power * z) ** 2)) / power
            assert resolvent._norm(z, mult) == pytest.approx(exact, rel=1e-15, abs=0.0)


class TestGramSchmidt:
    # z nearly inside the span keeps 1e-9 of its norm after the first pass
    # and takes the second; a random z keeps most of it and takes one
    @pytest.mark.parametrize("n", [80, 81])
    @pytest.mark.parametrize("outside, passes", [(1e-9, 2), (1.0, 1)])
    def test_extend_leaves_an_orthonormal_basis(self, n, outside, passes, monkeypatch):
        # k random rows orthonormal in the inner product of _multiplicity
        k, mult = 6, resolvent._multiplicity(n)
        rng = np.random.default_rng(n)
        basis = np.full((k + 1, mult.size), np.nan)
        basis[:k] = np.linalg.qr(rng.standard_normal((mult.size, k)))[0].T / np.sqrt(mult)
        z = rng.standard_normal(k) @ basis[:k] + outside * rng.standard_normal(mult.size)
        norms = []
        norm = resolvent._norm

        def counted(vec, weights):
            norms.append(1)
            return norm(vec, weights)

        monkeypatch.setattr(resolvent, "_norm", counted)
        size, coef = resolvent._extend(basis, k, z, mult)
        assert len(norms) == 1 + passes
        assert size > 0.0
        assert np.array_equal(coef, basis[:k] @ (mult * z))
        gram = basis @ (mult * basis).T
        assert np.max(np.abs(gram - np.eye(k + 1))) <= 1e-14

    def test_extend_inside_the_span(self):
        # N = 7, multiplicities 2, 2, 2, 1: the rows and z are exact in
        # binary, so the projection cancels z exactly
        mult = resolvent._multiplicity(7)
        basis = np.full((3, 4), np.nan)
        basis[:2] = [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        size, coef = resolvent._extend(basis, 2, np.array([1.0, 1.0, 0.0, 3.0]), mult)
        assert size == 0.0
        assert np.array_equal(coef, [2.0, 3.0])
        assert np.array_equal(basis[2], np.zeros(4))


class TestMeanFrames:
    def test_boundary_start_reference_value(self):
        assert mean_frames(op_for(20.0), 0.0).M == pytest.approx(13.966, abs=0.01)

    def test_bulk_start_reference_value(self):
        assert mean_frames(op_for(40.0), 0.5).M == pytest.approx(422.9, abs=0.1)

    def test_mean_tau_offset(self):
        stats = mean_frames(op_for(7.0), 0.3)
        assert stats.mean_tau == 1.0 + stats.M

    def test_mirror_symmetry(self):
        op = op_for(20.0)
        m1 = mean_frames(op, 0.3).M
        m2 = mean_frames(op, 0.7).M
        assert abs(m1 - m2) / m1 < 1e-12

    def test_monotone_in_rho(self):
        values = [mean_frames(op_for(r), 0.3).M for r in (1.0, 2.0, 5.0, 10.0, 20.0)]
        assert np.all(np.diff(values) > 0.0)

    def test_residual_contract(self):
        op = op_for(200.0)
        h = initial_vector(op, 0.5)
        x = unfold(_resolvent_solve(op, h[: (op.n + 1) // 2]), op.n)
        residual = np.max(np.abs(x - op.matvec(x) - h))
        assert residual < 1e-10

    def test_supercritical_operator_raises(self):
        # a hand-built band with row sums above 1 must be rejected
        bw = 8
        band = np.full(bw + 1, 1.2 / (2 * bw + 1))
        bad = StroboOperator(rho=1.0, n=64, band=band, law=FrameDistribution.deterministic())
        with pytest.raises(SolverError):
            mean_frames(bad, 0.5)

    @pytest.mark.parametrize("dist, mass", [("deterministic", 1.0 / math.sqrt(2.0 * math.pi)),
                                            ("exponential", 1.0 / math.sqrt(2.0))])
    def test_vanishing_rho(self, dist, mass):
        # K is the kernel peak rho*mass spread evenly, so S_1, M and lambda0
        # all equal it to rounding; P^{-1} tends to 1/alpha.  Below rho ~
        # 1e-154 the squares of the eigen residual's entries underflow, and
        # an unscaled norm reads it as 0 at the half-sine start
        for rho in (1e-20, 1e-200, 1e-300):
            op = law_op(rho, dist)
            assert mean_frames(op, 0.5).M == pytest.approx(rho * mass, rel=1e-12, abs=0.0)
            assert spectral_pair(op)[0] == pytest.approx(rho * mass, rel=1e-12, abs=0.0)

    def test_banded_solve_matches_dense_solver(self):
        # independent route: dense numpy solve of (I - K) x = h on the
        # interval-averaged operator
        spec = ProblemSpec(rho=8.0)
        op = build_averaged_operator(spec, FrameDistribution.uniform_jitter(0.5))
        h = initial_vector(op, 0.35)
        x = np.linalg.solve(np.eye(op.n) - op.toarray(), h)
        dense_m = float(op.weights @ x)
        assert mean_frames(op, 0.35).M == pytest.approx(dense_m, rel=1e-12)

    def test_wide_kernel_mean_is_small(self):
        # kernel much wider than the interval: exit is almost certain each
        # frame, so M stays well below one
        stats = mean_frames(op_for(0.2), 0.5)
        assert 0.0 < stats.M < 0.15
        assert stats.mean_tau == 1.0 + stats.M

    def test_dirichlet_limit_with_slope_correction(self):
        # M/rho^2 -> y0(1-y0) with a universal linear correction ~0.583/rho
        for rho, rel_tol in ((100.0, 0.02), (200.0, 0.01)):
            op = op_for(rho)
            for y0 in (0.25, 0.5, 0.75):
                target = y0 * (1.0 - y0)
                ratio = mean_frames(op, y0).M / rho**2
                assert abs(ratio - (target + 0.583014 / rho)) < rel_tol * target


class TestSpectralPair:
    def test_eigenvalue_in_unit_interval(self):
        lam, _, _ = spectral_pair(op_for(50.0))
        assert 0.0 < lam < 1.0

    def test_gap_against_reference_expansion(self):
        # the closed-form expansion overshoots the true gap by ~2.7/rho relative
        for rho in (20.0, 50.0, 120.0):
            lam, _, _ = spectral_pair(op_for(rho))
            gap = 1.0 - lam
            expansion = math.pi**2 / (2.0 * rho**2) + GAP_BETA / rho**3
            assert abs(expansion - gap) / gap <= 10.0 / rho

    def test_gap_quarter_scaling(self):
        g1 = 1.0 - spectral_pair(op_for(60.0))[0]
        g2 = 1.0 - spectral_pair(op_for(120.0))[0]
        assert g2 / g1 == pytest.approx(0.25, abs=0.02)

    def test_eigenvector_positive_and_symmetric(self):
        _, vec, _ = spectral_pair(op_for(15.0))
        assert np.all(vec > 0.0)
        assert np.allclose(vec, vec[::-1], rtol=1e-8)

    def test_a0_normalizes_the_tail(self):
        op = op_for(20.0)
        lam, _, a0 = spectral_pair(op, y0=0.5)
        values = survival_sequence(op, 0.5, 400).values
        assert values[400] / lam**400 == pytest.approx(a0, rel=1e-4)

    @pytest.mark.parametrize("rho, dist", [
        (0.05, "deterministic"),
        (1.0, "deterministic"),
        (5.0, "deterministic"),
        (50.0, "deterministic"),
        (10.0, "exponential"),
        (40.0, "exponential"),  # N = 720 with the band cut at 459
        (1.0, "twopoint:0.5,1.5,0.5"),
        (40.0, "jitter:0.5"),
        (20.0, "twopoint:0.001,1,0.99"),  # the widest band, 359, and ~30 steps
        (20.0, "twopoint:0.0001,1,0.95"),  # symbol bound 13.5: ~50 steps
        (20.0, "twopoint:1e-5,1,0.999"),  # symbol bound 58: sine-transform preconditioner
    ])
    def test_matches_dense_eigensolver(self, rho, dist):
        # independent route: dense symmetric eigensolver on the same matrix
        spec, mu = ProblemSpec(rho=rho), FrameDistribution.parse(dist)
        if mu.kind == "deterministic":
            op = build_operator(spec)
        else:
            op = build_averaged_operator(spec, mu)
        lam, vec, _ = spectral_pair(op)
        assert abs(lam - np.linalg.eigvalsh(op.toarray())[-1]) <= 1e-14
        assert np.linalg.norm(op.matvec(vec) - lam * vec) <= EIGEN_TOL * lam

    @pytest.mark.parametrize("rho", np.arange(20.0, 201.0, 10.0).tolist())
    def test_deterministic_products(self, rho, monkeypatch):
        # the expansion term of the Laplace route: 8 steps and the confirming
        # product up to rho 70, 7 and one from rho 80; 11 and one without it
        op = op_for(rho)
        calls = count_even_products(monkeypatch)
        lam, vec, _ = spectral_pair(op)
        assert len(calls) <= 9
        assert np.linalg.norm(op.matvec(vec) - lam * vec) <= EIGEN_TOL * lam

    @pytest.mark.parametrize("rho, dist, products", [
        (0.05, "deterministic", 5),
        (1.0, "deterministic", 7),
        (5.0, "deterministic", 10),
        (50.0, "deterministic", 12),
        (10.0, "exponential", 8),
        (40.0, "exponential", 8),
        (1.0, "twopoint:0.5,1.5,0.5", 7),
        (40.0, "jitter:0.5", 12),
        (20.0, "twopoint:0.001,1,0.99", 11),
        (20.0, "twopoint:0.0001,1,0.95", 11),
        (20.0, "twopoint:1e-5,1,0.999", 11),
    ])
    def test_products_on_every_law(self, rho, dist, products, monkeypatch):
        # the laws of test_matches_dense_eigensolver, each capped at the
        # products it took with the Laplace (or sine-transform) P alone
        op = law_op(rho, dist)
        calls = count_even_products(monkeypatch)
        lam, vec, _ = spectral_pair(op)
        assert len(calls) <= products
        assert np.linalg.norm(op.matvec(vec) - lam * vec) <= EIGEN_TOL * lam

    def test_basis_grows_past_its_first_rows(self, monkeypatch):
        # the Laplace P on a law far beyond the bound (13.5): 48 steps, far
        # past the 7 to 12 of the laws within it, in the basis allocated for
        # the step cap
        monkeypatch.setattr(resolvent, "LAPLACE_COND_MAX", math.inf)
        op = law_op(20.0, "twopoint:0.0001,1,0.95")
        calls = count_even_products(monkeypatch)
        lam, vec, _ = spectral_pair(op)
        assert len(calls) > 33
        assert abs(lam - np.linalg.eigvalsh(op.toarray())[-1]) <= 1e-14
        assert np.linalg.norm(op.matvec(vec) - lam * vec) <= EIGEN_TOL * lam

    @pytest.mark.parametrize("rho, dist", [
        (3500.0, "deterministic"),
        (5000.0, "deterministic"),
        (4000.0, "jitter:0.5"),
    ])
    def test_large_rho_step_count(self, rho, dist, monkeypatch):
        # beyond rho ~ 1000 the residual sits near the bound for a few steps:
        # the pair must still be found in the 9 to 11 products of nearby rho
        op = law_op(rho, dist)
        calls = count_even_products(monkeypatch)
        lam, vec, _ = spectral_pair(op)
        assert len(calls) <= 12
        assert np.linalg.norm(op.matvec(vec) - lam * vec) <= EIGEN_TOL * lam

    def test_stops_at_the_rounding_floor(self, floor_op, monkeypatch):
        # m = 900,000: from the sixth step on the residual stays at 1.3-4.9e-13
        # relative, the rounding of the m-term dot product behind lambda0,
        # above EIGEN_TOL; the bound 2 eps sqrt(m) = 4.2e-13 is met after 7
        # products
        monkeypatch.setattr(resolvent, "EIGEN_MAX_ITER", 15)
        lam, _, _ = spectral_pair(floor_op)
        assert_gap_expansion(floor_op.rho, lam)

    def test_value_stop_at_the_rounding_floor(self, floor_op, monkeypatch):
        # the value stop's bound on the residual, sqrt((eps/2) theta delta) =
        # 5.7e-13 relative, lies above the floor 4.2e-13 and above the
        # residual's wander beneath it: the stop takes the fourth step's
        # 5.3e-13, which the residual stop rejects, after the confirming product
        monkeypatch.setattr(resolvent, "EIGEN_MAX_ITER", 15)
        reference = spectral_pair(floor_op)[0]
        residuals, _, reaches = record_value_stop(monkeypatch)
        calls = count_even_products(monkeypatch)
        lam = leading_eigenvalue(floor_op)
        m = (floor_op.n + 1) // 2
        floor = 2.0 * np.finfo(float).eps * math.sqrt(m)
        assert floor < reaches[-1] < resolvent.CONFIRM_MARGIN * floor
        assert floor < residuals[-1] <= reaches[-1]
        assert len(calls) == len(reaches) + 2 <= 6
        assert_gap_expansion(floor_op.rho, lam)
        assert abs(lam - reference) <= floor * reference

    @pytest.mark.parametrize("dist", VALUE_LAWS)
    @pytest.mark.parametrize("rho", [0.01, 0.3, 2.0, 5.0, 20.0, 100.0, 500.0, 1000.0, 3000.0])
    def test_value_stop_matches_the_residual_stop(self, rho, dist, monkeypatch):
        # the value stop's truncation error is below 0.8 eps lambda0, under the
        # rounding of the m-term Rayleigh quotient that both stops share, up to
        # about 2 eps sqrt(m) lambda0 (10 ulp apart is common)
        op = law_op(rho, dist)
        calls = count_even_products(monkeypatch)
        reference = spectral_pair(op)[0]
        residual_products = len(calls)
        calls.clear()
        lam = leading_eigenvalue(op)
        assert len(calls) < residual_products
        eps, m = np.finfo(float).eps, (op.n + 1) // 2
        assert abs(lam - reference) <= max(0.8 * eps, 2.0 * eps * math.sqrt(m)) * reference

    @pytest.mark.parametrize("dist", VALUE_LAWS)
    @pytest.mark.parametrize("rho", [0.01, 0.3, 2.0, 5.0, 20.0, 100.0])
    def test_gap_estimate_below_the_dense_gap(self, rho, dist, monkeypatch):
        # N <= 1800: the delta of the stop against lambda0 - lambda_2 of the
        # even block of the dense matrix
        op = law_op(rho, dist)
        _, deltas, _ = record_value_stop(monkeypatch)
        leading_eigenvalue(op)
        even = np.linalg.eigvalsh(even_block(op.toarray()))
        assert 0.0 < deltas[-1] <= even[-1] - even[-2]

    def test_large_rho_bulk_amplitude(self):
        # N = 7200 is beyond a dense solve; the bulk mode's overlap amplitude
        # tends to 4/pi as rho grows
        _, _, a0 = spectral_pair(op_for(400.0), y0=0.5)
        assert abs(a0 - 4.0 / math.pi) <= 5e-5

    def test_averaged_operator_spectrum(self):
        op = build_averaged_operator(ProblemSpec(rho=10.0), FrameDistribution.exponential())
        lam, vec, _ = spectral_pair(op)
        assert 0.0 < lam < 1.0
        assert np.all(vec > 0.0)


def law_op(rho, dist, n_grid=None, eta=DEFAULT_CUTOFF_ETA):
    spec = ProblemSpec(rho=rho, n_grid=n_grid, cutoff_eta=eta)
    mu = FrameDistribution.parse(dist)
    if mu.kind == "deterministic":
        return build_operator(spec)
    return build_averaged_operator(spec, mu)


def assembled_op(rho, dist, n_grid=None):
    """The operator of `law_op`, assembled from its band without the build's refusals."""
    spec, mu = ProblemSpec(rho=rho, n_grid=n_grid), FrameDistribution.parse(dist)
    n = spec.n_grid
    band = averaged_kernel(np.arange(_band_width(spec, mu) + 1) / n, spec.rho, mu, 1.0 / n) / n
    return StroboOperator(rho=spec.rho, n=n, band=band, law=mu)


LAWS = ["deterministic", "exponential", "jitter:0.5", "twopoint:0.5,1.5,0.5"]


# (rho, n_grid): odd N at n_grid 65, 91 and 235; bandwidth >= ceil(N/2)
# at rho 0.05 and 0.3 (N = 64) and at n_grid 65 and 91; a band narrower
# than the half at N = 360 and, but for the exponential law, at 235
FOLD_CASES = [(0.05, None), (0.3, None), (3.0, 65), (10.0, 91), (40.0, 235), (20.0, None)]


def unfold(half, n):
    """The mirror-even vector of length n whose first entries are `half`."""
    full = np.empty(n)
    full[: half.size] = half
    full[n - half.size :] = half[::-1]
    return full


# a coarse grid near the 4-step minimum of the resolution rule (N >= 9.4
# at rho = 20) and the default grid, each with even and odd N
DENSE_GRIDS = [(20.0, 10), (20.0, 11), (20.0, None), (20.0, 361), (0.3, None), (3.0, 65)]


def dense_preconditioner(op):
    """Dense M of `_precondition` on the Laplace route: P^{-1}, less CORRECTION_WEIGHT G
    where the operator keeps the correction term.

    P = cosh(ah/2) I - sinh(ah/2) R with R_ij = e^{-ah|i-j|} at a = sqrt 2 rho;
    G has 1 - e^{-ah/2} on its diagonal and sinh(ah/2) e^{-ah|i-j|} off it at
    a = CORRECTION_RATE rho.  Both depend on rho and N alone.
    """
    n = op.n
    offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    x = 0.5 * math.sqrt(2.0) * op.rho / n
    dense = np.linalg.inv(math.cosh(x) * np.eye(n) - math.sinh(x) * np.exp(-2.0 * x * offsets))
    if _preconditioner(op)[2] is None:
        return dense
    ah = resolvent.CORRECTION_RATE * op.rho / n
    kernel = np.where(offsets == 0, -math.expm1(-0.5 * ah),
                      math.sinh(0.5 * ah) * np.exp(-ah * offsets))
    return dense - resolvent.CORRECTION_WEIGHT * kernel


class TestMirrorFold:
    @pytest.mark.parametrize("dist", LAWS)
    @pytest.mark.parametrize("rho, n_grid", FOLD_CASES)
    def test_mean_frames_matches_dense_solve(self, rho, n_grid, dist):
        op = law_op(rho, dist, n_grid)
        dense = np.eye(op.n) - op.toarray()
        for y0 in (0.0, 0.13, 0.5, 1.0):
            h = initial_vector(op, y0)
            dense_m = float(op.weights @ np.linalg.solve(dense, h))
            assert mean_frames(op, y0).M == pytest.approx(dense_m, rel=1e-12)

    @pytest.mark.parametrize("dist", LAWS)
    @pytest.mark.parametrize("rho, n_grid", FOLD_CASES)
    def test_survival_matches_dense_powers(self, rho, n_grid, dist):
        # S_n = w . K^{n-1} h with the dense matrix, for starts whose profile
        # has an odd part (y0 = 0, 0.13, 1) and for the centred one
        op = law_op(rho, dist, n_grid)
        dense = op.toarray()
        for y0 in (0.0, 0.13, 0.5, 1.0):
            vec, expected = initial_vector(op, y0), [1.0]
            for _ in range(40):
                expected.append(op.weights @ vec)
                vec = dense @ vec
            values = survival_sequence(op, y0, 40).values
            assert values == pytest.approx(np.array(expected), rel=1e-12, abs=0.0)

    # the fold cases, plus bandwidth == ceil(N/2) at rho 17 (N = 306) and
    # two wider grids
    @pytest.mark.parametrize("dist", LAWS)
    @pytest.mark.parametrize("rho, n_grid", [*FOLD_CASES, (17.0, None), (17.0, 307),
                                             (100.0, None), (400.0, None)])
    def test_even_matvec_matches_full_product(self, rho, n_grid, dist):
        op = law_op(rho, dist, n_grid)
        m = (op.n + 1) // 2
        half = np.random.default_rng(11).standard_normal(m)
        full = op.matvec(unfold(half, op.n))
        assert np.max(np.abs(op.even_matvec(half) - full[:m])) <= 2e-15 * np.max(np.abs(half))

    def test_even_matvec_rejects_a_wrong_length(self):
        op = op_for(5.0)
        with pytest.raises(ValueError, match="even half"):
            op.even_matvec(np.ones(op.n))

    def test_survival_and_eigen_steps_make_no_full_grid_product(self, monkeypatch):
        # every product of the survival recursion, of the resolvent solve and
        # its residual check, and of the eigensolver is a half-grid one
        calls = []
        matvec = StroboOperator.matvec

        def counted(self, vec):
            calls.append(self.n)
            return matvec(self, vec)

        monkeypatch.setattr(StroboOperator, "matvec", counted)
        op = op_for(100.0)
        survival_sequence(op, 0.5, 2000)
        spectral_pair(op)
        mean_frames(op, 0.5)
        exit_stats(op_for(100.0), 0.0)
        assert calls == []

    @pytest.mark.parametrize("rho, n_grid, dist", [
        (3.0, 65, "deterministic"),
        (40.0, 235, "deterministic"),
        (10.0, 91, "exponential"),
    ])
    def test_odd_grid_spectral_pair_matches_dense(self, rho, n_grid, dist):
        op = law_op(rho, dist, n_grid)
        lam, vec, _ = spectral_pair(op)
        assert abs(lam - np.linalg.eigvalsh(op.toarray())[-1]) <= 1e-14
        assert np.linalg.norm(op.matvec(vec) - lam * vec) <= EIGEN_TOL * lam

    @pytest.mark.parametrize("rho, n_grid", [
        (0.05, None), (20.0, None), (3.0, 65), (20.0, 235),
    ])
    def test_factor_is_half_size(self, rho, n_grid):
        # within the symbol-ratio bound the preconditioner keeps no sine
        # transform, only the three coefficients of its closed form, whatever
        # the band of the law, and maps the even half to the even half
        for dist in LAWS:
            op = law_op(rho, dist, n_grid)
            sine, route, _ = _preconditioner(op)
            assert sine is None
            assert len(route) == 3 and all(isinstance(c, float) for c in route)
            m = (op.n + 1) // 2
            assert resolvent._precondition(op, np.ones(m)).shape == (m,)

    @pytest.mark.parametrize("rho, n_grid", DENSE_GRIDS)
    def test_closed_form_matches_dense_solve(self, rho, n_grid):
        # deterministic frames: M = P^{-1} - CORRECTION_WEIGHT G; exponential
        # frames: M = P^{-1}.  At N = 10 the kernel, 0.5 grid steps wide,
        # aliases past unit spectral radius and the build refuses it
        for dist in ("deterministic", "exponential"):
            op = assembled_op(rho, dist, n_grid)
            n, m = op.n, (op.n + 1) // 2
            dense = dense_preconditioner(op)
            assert (_preconditioner(op)[2] is not None) is (dist == "deterministic")
            rng = np.random.default_rng(7)
            for half in (op.weights[:m], rng.standard_normal(m)):
                exact = (dense @ unfold(half, n))[:m]
                got = resolvent._precondition(op, half)
                assert np.max(np.abs(got - exact)) < 1e-12 * np.max(np.abs(exact))

    # the correction term's rescaled cumulative sums in one block, and with
    # the exponent bound at 2 in blocks of 1 (N = 10), 16 (N = 360, 361) and
    # 19 (N = 65) entries
    @pytest.mark.parametrize("rho, n_grid", [(20.0, 10), (20.0, None), (20.0, 361), (3.0, 65)])
    @pytest.mark.parametrize("bound", [None, 2.0])
    def test_davidson_term_matches_dense(self, rho, n_grid, bound, monkeypatch):
        # M = P^{-1} - CORRECTION_WEIGHT G, the term Davidson and PCG share,
        # with G the Laplace cell means at rate CORRECTION_RATE rho
        if bound is not None:
            monkeypatch.setattr(resolvent, "_RESCALE_EXP", bound)
        op = assembled_op(rho, "deterministic", n_grid)
        resolvent._preconditioner_cache.pop(op, None)
        assert _preconditioner(op)[2] is not None
        n, m = op.n, (op.n + 1) // 2
        dense = dense_preconditioner(op)
        rng = np.random.default_rng(11)
        for half in (op.weights[:m], rng.standard_normal(m)):
            exact = (dense @ unfold(half, n))[:m]
            got = resolvent._precondition(op, half)
            assert np.max(np.abs(got - exact)) < 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("rho, n_grid", DENSE_GRIDS)
    def test_corrected_preconditioner_positive_definite(self, rho, n_grid):
        # P^{-1} > I and 0 < G < I, so M = P^{-1} - CORRECTION_WEIGHT G >
        # (1 - CORRECTION_WEIGHT) I: PCG may take M
        op = assembled_op(rho, "deterministic", n_grid)
        assert _preconditioner(op)[2] is not None
        dense = dense_preconditioner(op)
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T))[0] > 1.0 - resolvent.CORRECTION_WEIGHT

    @pytest.mark.parametrize("rho", [5.0, 20.0, 100.0, 1000.0])
    def test_deterministic_pcg_products(self, rho, monkeypatch):
        # M's steps and the true residual: 11 to 13 products with P alone
        products = count_even_products(monkeypatch)
        weight_resolvent(op_for(rho))
        assert len(products) <= 8

    def test_closed_form_at_vanishing_rho(self):
        # sinh^2(ah/2) underflows: P^{-1} b is b / alpha, finite
        op = law_op(1e-300, "deterministic")
        half = op.weights[: (op.n + 1) // 2]
        alpha = _preconditioner(op)[1][0]
        got = resolvent._precondition(op, half)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, half / alpha)

    @pytest.mark.parametrize("dist, taken", [
        ("deterministic", True),
        ("jitter:0.5", True),
        ("twopoint:0.5,1.5,0.5", True),
        ("exponential", False),  # P is I - K: the term raises the bound to 1.30
        ("twopoint:1e-5,1,0.999", False),  # the sine-transform route
    ])
    def test_davidson_term_where_it_lowers_the_bound(self, dist, taken):
        op = law_op(20.0, dist)
        assert (_preconditioner(op)[2] is not None) is taken
        if taken:
            bound, lowered = resolvent._symbol_condition(op)
            assert lowered < bound < LAPLACE_COND_MAX
        if dist == "deterministic":
            assert lowered == pytest.approx(1.0245, abs=1e-3)

    @pytest.mark.parametrize("rho", [20.0, 100.0])
    def test_wide_mixture_takes_the_sine_transform(self, rho, monkeypatch):
        # beyond the bound the preconditioner is the sine transform, which
        # keeps the m odd-k eigenvalues, and PCG solves in 6 and 7 steps
        products = []
        even_matvec = StroboOperator.even_matvec

        def counted(self, half):
            products.append(1)
            return even_matvec(self, half)

        monkeypatch.setattr(StroboOperator, "even_matvec", counted)
        op = law_op(rho, "twopoint:1e-5,1,0.999")
        m = (op.n + 1) // 2
        sine, route, term = _preconditioner(op)
        assert route is None and term is None
        assert [a.shape for a in sine] == [(m,), (op.n,), (m,)]
        # the steps and the true residual
        weight_resolvent(op)
        assert len(products) == {20.0: 7, 100.0: 8}[rho]

    # even and odd N, and N = 2 * 617 and 5 * 13 * 19 with large prime factors
    @pytest.mark.parametrize("n_grid", [360, 361, 1234, 1235])
    def test_sine_transform_matches_dense_solve(self, n_grid):
        # P = I - K + H with the image charges H_ij = band[i+j+1] +
        # band[2N-1-i-j] of K at the walls, solved densely; the band of this
        # law spans the whole grid, so H is full
        op = law_op(20.0, "twopoint:1e-5,1,0.999", n_grid)
        assert _preconditioner(op)[1] is None
        n, m = op.n, (op.n + 1) // 2
        band = np.zeros(2 * n + 1)
        band[: op.band.size] = op.band
        i = np.arange(n)
        dense = (np.eye(n) - op.toarray() + band[i[:, None] + i + 1]
                 + band[2 * n - 1 - i[:, None] - i])
        rng = np.random.default_rng(7)
        for half in (op.weights[:m], rng.standard_normal(m)):
            exact = np.linalg.solve(dense, unfold(half, n))[:m]
            got = resolvent._precondition(op, half)
            assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
        # the eigenvalues the apply divides by are those of P on the even subspace
        even = np.zeros((n, m))
        even[i[:m], i[:m]] = even[n - 1 - i[:m], i[:m]] = 1.0
        even /= np.linalg.norm(even, axis=0)
        lam = _preconditioner(op)[0][0]
        assert np.sort(lam) == pytest.approx(np.linalg.eigvalsh(even.T @ dense @ even),
                                             rel=0.0, abs=1e-13)

    def test_symbol_condition(self):
        # deterministic frames: max (1 - e^{-t})(1 + t)/t = 1.2984 near t = 1.79,
        # to the spacing of 400 log-spaced t; exponential frames have the
        # Laplace symbol itself
        bound = resolvent._symbol_condition(op_for(20.0))[0]
        assert bound == pytest.approx(1.2984, abs=1e-3)
        bound = resolvent._symbol_condition(law_op(20.0, "exponential"))[0]
        assert bound == pytest.approx(1.0, rel=0.0, abs=1e-15)
        bound = resolvent._symbol_condition(law_op(20.0, "twopoint:1e-5,1,0.999"))[0]
        assert bound > LAPLACE_COND_MAX
        # a vanishing rho puts every t beyond the kernel width: both ratios
        # are 1, and t is capped before it overflows
        for rho in (1e-20, 1e-200):
            op = law_op(rho, "twopoint:1e-5,1,0.999")
            assert resolvent._symbol_condition(op) == (1.0, 1.0)

    @pytest.mark.parametrize("rho", [1e-20, 20.0])
    def test_exponential_symbol_condition_in_closed_form(self, rho):
        # the Laplace symbol itself: the ratio for P is 1, and that for M
        # 1 - CORRECTION_WEIGHT tau t/((1 + t)(t + tau)), least at t = sqrt tau
        tau = 0.5 * resolvent.CORRECTION_RATE**2
        with_term = 1.0 / (1.0 - resolvent.CORRECTION_WEIGHT * tau / (1.0 + math.sqrt(tau)) ** 2)
        assert resolvent._symbol_condition(law_op(rho, "exponential")) == (1.0, with_term)
        assert with_term == pytest.approx(1.3044, abs=1e-4)

    @pytest.mark.parametrize("rho", [0.05, 3.0, 40.0, 1000.0])
    def test_exponential_route_selection(self, rho, monkeypatch):
        # exponential frames always take the Laplace route, and P is their
        # I - K up to its omitted band tail: at the default cutoff the tail is
        # below 2 eps (0 for a full band), and eta = 6 cuts it at ~1e-8 once
        # the band is cut (rho >= 12.8).  Products per solve, at the default
        # cutoff and at eta = 6: the PCG steps and the true residual; at the
        # default cutoff one step meets the bound
        exact = {0.05: (2, 2), 3.0: (2, 2), 40.0: (2, 3), 1000.0: (2, 4)}[rho]
        products = []
        even_matvec = StroboOperator.even_matvec

        def counted(self, half):
            products.append(1)
            return even_matvec(self, half)

        monkeypatch.setattr(StroboOperator, "even_matvec", counted)
        for eta, count in zip((DEFAULT_CUTOFF_ETA, 6.0), exact):
            op = law_op(rho, "exponential", eta=eta)
            assert _preconditioner(op)[1] is not None
            products.clear()
            weight_resolvent(op)
            assert len(products) == count

    def test_route_decided_once_per_operator(self, monkeypatch):
        # a solve, a second start point and every eigen step read the route
        # and Davidson's term from the record that the preconditioner cached,
        # decided from one symbol-ratio evaluation; fresh operators, so
        # nothing is cached
        decisions = []
        condition = resolvent._symbol_condition

        def counted(op):
            decisions.append(op.law.kind)
            return condition(op)

        monkeypatch.setattr(resolvent, "_symbol_condition", counted)
        for dist in ("exponential", "deterministic", "twopoint:1e-5,1,0.999"):
            op = law_op(100.0, dist)
            exit_stats(op, 0.5)
            mean_frames(op, 0.0)
        assert decisions == ["exponential", "deterministic", "two-point"]

    def test_preconditioner_built_once_per_operator(self, monkeypatch):
        # a solve, a second start point and every eigen step apply the closed
        # form from the coefficients the first solve cached, and no law within
        # the bound factors a band; fresh operators, so nothing is cached
        built = []
        band = resolvent.laplace_band

        def counted(op):
            built.append(op.n)
            return band(op)

        def fail(op):
            raise AssertionError("no law within the symbol-ratio bound takes the sine transform")

        monkeypatch.setattr(resolvent, "laplace_band", counted)
        monkeypatch.setattr(resolvent, "_sine_transform", fail)
        for dist in LAWS:
            op = law_op(100.0, dist)
            exit_stats(op, 0.5)
            mean_frames(op, 0.0)
        assert built == [1800] * len(LAWS)


class TestWeightResolvent:
    def test_one_solve_serves_every_start(self, monkeypatch):
        calls = []
        precondition = resolvent._precondition

        def counted(op, half):
            calls.append(1)
            return precondition(op, half)

        monkeypatch.setattr(resolvent, "_precondition", counted)
        # one preconditioner apply per PCG step of the first solve, none after
        for dist in LAWS:
            calls.clear()
            op = law_op(30.0, dist)
            mean_frames(op, 0.5)
            first = len(calls)
            for y0 in (0.0, 0.13, 0.5, 1.0):
                mean_frames(op, y0)
            assert first >= 1
            assert len(calls) == first

    # jitter:0.5 adds a smooth mixture, twopoint:0.001,1,0.99 the widest band
    # (1459) and the sine-transform preconditioner (up to 8 PCG steps)
    @pytest.mark.parametrize("dist", ["deterministic", "exponential", "jitter:0.5",
                                      "twopoint:0.001,1,0.99"])
    @pytest.mark.parametrize("rho", [0.05, 20.0, 200.0, 1000.0, 3000.0])
    def test_backward_error_contract(self, rho, dist):
        # the cached u, and the even part of the centred h, whose solution
        # grows like rho^2 (an absolute residual bound fails it at rho=1000);
        # rounding leaves h itself odd beyond the bound at rho=0.05.
        # Exponential frames also at eta = 6, where the preconditioner is no
        # longer exact once the band is cut (rho >= 20 here)
        etas = (DEFAULT_CUTOFF_ETA, 6.0) if dist == "exponential" else (DEFAULT_CUTOFF_ETA,)
        for eta in etas:
            assert_backward_error(law_op(rho, dist, eta=eta))

    # the widest two-point laws the default grid admits, all beyond
    # LAPLACE_COND_MAX and preconditioned by the sine transform (symbol
    # bounds 10.3 to 83); twopoint:1e-6,1,0.999 is wider still and aliases
    # past unit spectral radius on the default grid, which the build refuses
    @pytest.mark.parametrize("rho, dist", [
        *((rho, dist) for dist in ("twopoint:0.0001,1,0.95", "twopoint:1e-5,1,0.999",
                                   "twopoint:1e-6,1,0.9999") for rho in (20.0, 100.0)),
        (60.0, "twopoint:0.000316,1,0.995"),
    ])
    def test_backward_error_contract_widest_mixtures(self, rho, dist):
        assert_backward_error(law_op(rho, dist))

    def test_residual_replacement_recovers_a_drifted_product(self, monkeypatch):
        # the first step's product off by 1e-9 leaves the recursive residual
        # 1e-9 from the true one: the first true residual misses, replaces
        # it, and the second, after more steps, meets the contract
        calls, checks, step = [], [], []
        precondition, even_matvec = resolvent._precondition, StroboOperator.even_matvec

        def preconditioned(op, res):
            step.append(1)
            return precondition(op, res)

        def drifted(self, half):
            calls.append(1)
            if not (step and step.pop()):
                checks.append(1)  # follows no preconditioner solve: a true residual
            out = even_matvec(self, half)
            return out + 1e-9 if len(calls) == 1 else out

        monkeypatch.setattr(resolvent, "_precondition", preconditioned)
        monkeypatch.setattr(StroboOperator, "even_matvec", drifted)
        op = op_for(100.0)
        weight_resolvent(op)
        assert len(checks) == 2
        assert_backward_error(op)


def assert_backward_error(op):
    """The cached u and the even part of the centred h meet RESIDUAL_TOL."""
    h = initial_vector(op, 0.5)
    h = 0.5 * (h + h[::-1])
    m = (op.n + 1) // 2
    for rhs, half in ((op.weights, weight_resolvent(op)), (h, _resolvent_solve(op, h[:m]))):
        assert_meets_contract(op, rhs, half)


def assert_meets_contract(op, rhs, half):
    """The even x whose first entries are `half` solves (I - K) x = rhs within
    RESIDUAL_TOL, formed on the full grid."""
    x = unfold(half, op.n)
    # ||I - K||_inf from the row sums: K >= 0 and its diagonal is below 1
    norm = np.max(1.0 - 2.0 * op.band[0] + op.matvec(np.ones(op.n)))
    residual = np.max(np.abs(rhs - (x - op.matvec(x))))
    assert residual <= RESIDUAL_TOL * (norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))


SWEEP_RHOS = np.arange(20.0, 201.0, 10.0).tolist()


def sweep_solves(rhos, dist):
    """[(operator, u, started)] over a sweep: each u solved from the two pairs
    before it, as `cli._sweep` hands them on; started if they gave a start."""
    points = []
    for rho in rhos:
        op = law_op(rho, dist)
        pairs = [(prev, u) for prev, u, _ in points[-2:]]
        started = resolvent._sweep_start(op, pairs) is not None
        points.append((op, weight_resolvent(op, pairs), started))
    return points


def zero_start_u(op):
    """u = (I - K)^{-1} w solved from 0 on a fresh copy of `op`, past its cache."""
    fresh = StroboOperator(rho=op.rho, n=op.n, band=op.band.copy(), law=op.law)
    return weight_resolvent(fresh)


@pytest.fixture(scope="module")
def law_sweeps():
    """sweep_solves over rho = 20:200:10, ascending and descending, by (dist, order)."""
    return {(dist, order): sweep_solves(SWEEP_RHOS[::order], dist)
            for dist in LAWS for order in (1, -1)}


class TestSweepStart:
    # on the default grid 18 rho is an integer at every point, so one band
    # serves the sweep: the start is taken from the third point on, but
    # where the exponential band is cut at N - 1 (rho = 20, bandwidth 359
    # against 459 from rho = 30 on)
    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("dist", LAWS)
    def test_started_where_the_band_is_shared(self, dist, order, law_sweeps):
        points = law_sweeps[dist, order]
        shared = [len({op.bandwidth for op, _, _ in points[k - 2 : k + 1]}) == 1
                  for k in range(2, len(points))]
        assert [started for _, _, started in points[2:]] == shared
        assert sum(shared) >= len(points) - 3

    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("dist", LAWS)
    def test_started_solves_meet_the_contract(self, dist, order, law_sweeps):
        for op, u, _ in law_sweeps[dist, order]:
            assert_meets_contract(op, op.weights, u)

    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("dist", LAWS)
    def test_started_solves_match_the_zero_start(self, dist, order, law_sweeps):
        for op, u, _ in law_sweeps[dist, order][2:]:
            zero = zero_start_u(op)
            assert np.max(np.abs(u - zero)) <= 1e-11 * np.max(np.abs(zero))

    @pytest.mark.parametrize("dist", LAWS)
    def test_first_two_points_are_the_lone_solve(self, dist, law_sweeps):
        for op, u, started in law_sweeps[dist, 1][:2]:
            assert not started
            assert np.array_equal(u, zero_start_u(op))

    @pytest.mark.parametrize("rhos, dist", [
        # row sum 1 + 5.4e-6: aliasing bends v_N away from the parabola
        (SWEEP_RHOS, "twopoint:0.0001,1,0.95"),
        # 18 rho is no integer: rho/n changes from point to point
        ((20.3 + 9.7 * np.arange(19)).tolist(), "deterministic"),
    ])
    def test_fallback_sweeps_take_the_zero_start(self, rhos, dist):
        for op, u, started in sweep_solves(rhos, dist):
            assert not started
            assert np.array_equal(u, zero_start_u(op))

    def test_no_start_without_two_matching_pairs(self):
        a, b, c = (op_for(rho) for rho in (20.0, 30.0, 40.0))
        pairs = [(op, weight_resolvent(op)) for op in (a, b)]
        assert resolvent._sweep_start(c, pairs) is not None
        assert resolvent._sweep_start(c, pairs[1:]) is None
        # the two before it at one N
        assert resolvent._sweep_start(c, [pairs[1], pairs[1]]) is None
        # another law, another rho/n
        for other in (law_op(40.0, "jitter:0.5"), op_for(40.0, n_grid=700)):
            assert resolvent._sweep_start(other, pairs) is None


def supercritical_op():
    """A hand-built band with row sums 1.2: I - K is indefinite."""
    bw = 8
    return StroboOperator(rho=1.0, n=64, band=np.full(bw + 1, 1.2 / (2 * bw + 1)),
                          law=FrameDistribution.deterministic())


# every failure names its routine and rho, its step count, and the residual
# it reached against its bound
_NUMBER = r"[-+0-9.e]+"


class TestFailureMessages:
    def test_pcg_non_positive_curvature(self):
        with pytest.raises(SolverError, match=(
                rf"PCG resolvent solve at rho=1\.0: curvature p\.\(I - K\)p = {_NUMBER} "
                rf"<= 0 at step \d+ with residual {_NUMBER} against the bound {_NUMBER}")):
            _resolvent_solve(supercritical_op(), np.full(32, 1.0 / 64))

    def test_pcg_step_cap(self, monkeypatch):
        monkeypatch.setattr(resolvent, "EIGEN_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match=(
                rf"PCG resolvent solve at rho=100\.0: recursive residual {_NUMBER} "
                rf"exceeds the backward-error bound {_NUMBER} after 2 steps")):
            mean_frames(op_for(100.0), 0.5)

    def test_pcg_true_residual_after_restart(self, monkeypatch):
        # fresh noise of 1e-9 on every true-residual product, the product
        # that follows no preconditioner solve: the true residual misses the
        # bound however far PCG goes
        step = []
        precondition, even_matvec = resolvent._precondition, StroboOperator.even_matvec
        rng = np.random.default_rng(5)

        def preconditioned(op, res):
            step.append(1)
            return precondition(op, res)

        def noisy(self, half):
            out = even_matvec(self, half)
            return out if step and step.pop() else out + 1e-9 * rng.random(half.size)

        monkeypatch.setattr(resolvent, "_precondition", preconditioned)
        monkeypatch.setattr(StroboOperator, "even_matvec", noisy)
        with pytest.raises(SolverError, match=(
                rf"PCG resolvent solve at rho=100\.0: true residual {_NUMBER} exceeds the "
                rf"backward-error bound {_NUMBER} after \d+ steps and one restart")):
            mean_frames(op_for(100.0), 0.5)

    @pytest.mark.parametrize("solver", ["spectral_pair", "leading_eigenvalue"])
    def test_davidson_step_cap(self, solver, monkeypatch):
        monkeypatch.setattr(resolvent, "EIGEN_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match=(
                rf"Davidson {solver} at rho=100\.0: eigen residual {_NUMBER} "
                rf"exceeds the bound {_NUMBER} after 2 steps")):
            getattr(resolvent, solver)(op_for(100.0))

    def test_sine_preconditioner_not_positive_definite(self):
        # beyond the symbol-ratio bound, and row sums up to 1.0026 from the
        # narrow component's aliasing (which the build refuses): the band's
        # symbol exceeds 1, so a sine-transform eigenvalue is negative
        with pytest.raises(SolverError, match=(
                rf"sine-transform preconditioner of I - K at rho=20\.0: eigenvalue "
                rf"{_NUMBER} <= 0 at k=\d+")):
            mean_frames(assembled_op(20.0, "twopoint:1e-6,1,0.999"), 0.5)

    @pytest.mark.parametrize("solver", ["spectral_pair", "leading_eigenvalue"])
    def test_davidson_eigenvalue_outside_unit_interval(self, solver):
        with pytest.raises(SolverError, match=(
                rf"Davidson {solver} at rho=1\.0: leading eigenvalue {_NUMBER} "
                rf"outside \(0, 1\) after \d+ steps, eigen residual {_NUMBER} against the "
                rf"bound {_NUMBER}")):
            getattr(resolvent, solver)(supercritical_op())


class TestNeumannSeries:
    def test_single_term_is_s1(self):
        op = op_for(5.0)
        s1 = survival_sequence(op, 0.5, 1).values[1]
        assert neumann_partial_sum(op, 0.5, 1) == pytest.approx(s1, abs=1e-15)

    def test_partial_sums_strictly_increase(self):
        op = op_for(3.0)
        sums = [neumann_partial_sum(op, 0.5, t) for t in range(1, 12)]
        assert np.all(np.diff(sums) > 0.0)

    def test_converges_to_resolvent_from_below(self):
        op = op_for(10.0)
        stats = mean_frames(op, 0.5)
        lam, _, _ = spectral_pair(op)
        terms = int(np.ceil(20.0 / (1.0 - lam)))
        partial = neumann_partial_sum(op, 0.5, terms)
        assert partial < stats.M
        assert abs(partial - stats.M) < 1e-8 * max(1.0, stats.M)

    def test_tail_corrected_series_equivalence(self):
        # partial sum + geometric tail estimate matches the direct solve
        op = op_for(10.0)
        stats = mean_frames(op, 0.5)
        lam, _, _ = spectral_pair(op)
        terms = int(np.ceil(10.0 / (1.0 - lam)))
        partial = neumann_partial_sum(op, 0.5, terms)
        s_t = survival_sequence(op, 0.5, terms).values[terms]
        corrected = partial + s_t * lam / (1.0 - lam)
        assert abs(corrected - stats.M) < 1e-6 * stats.M

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            neumann_partial_sum(op_for(2.0), 0.5, 0)


class TestExitStats:
    def test_combined_record(self):
        stats = exit_stats(op_for(8.0), 0.5)
        assert stats.mean_tau == 1.0 + stats.M
        assert stats.gap == pytest.approx(1.0 - stats.lambda0)
        assert 0.0 < stats.lambda0 < 1.0

    def test_one_start_profile(self, monkeypatch):
        # exit_stats builds h(y0) once, for M; the eigenpair alone builds none,
        # and lambda0 is that of the value stop
        op = op_for(20.0)
        M, lam = mean_frames(op, 0.3).M, leading_eigenvalue(op)
        calls = count_start_profiles(monkeypatch)
        stats = exit_stats(op, 0.3)
        assert calls == [0.3]
        assert stats.M == M and stats.lambda0 == lam
        assert spectral_pair(op)[2] is None
        assert calls == [0.3]


class TestSharedOperatorConcurrency:
    def test_parallel_solves_match_serial(self):
        # a built operator is immutable; concurrent solves on it must agree
        # with the serial answers exactly
        from concurrent.futures import ThreadPoolExecutor

        op = op_for(15.0)
        y0s = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] * 4
        serial = [mean_frames(op, y0).M for y0 in y0s]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda y0: mean_frames(op, y0).M, y0s))
        assert parallel == serial
        assert not op.band.flags.writeable
