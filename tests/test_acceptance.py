"""Acceptance suite: every exit criterion at its pinned tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Sweeps are computed once and shared across criteria.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from strobofp import (
    BOUNDARY_CONST,
    FrameDistribution,
    ProblemSpec,
    boundary_law,
    build_averaged_operator,
    build_operator,
    bulk_law,
    effective_exponent,
    fit_boundary,
    fit_bulk,
    fit_gap,
    initial_vector,
    loglog_window_points,
    mean_frames,
    neumann_partial_sum,
    simulate_tau,
    spectral_pair,
    survival_sequence,
)

RHO_SWEEP = tuple(float(r) for r in range(20, 201, 10))
RHO_GAP = tuple(float(r) for r in range(20, 121, 10))
SEED = 12345

RANDOM_LAWS = {
    "jitter:0.5": FrameDistribution.uniform_jitter(0.5),
    "exponential": FrameDistribution.exponential(),
    "twopoint:0.5,1.5,0.5": FrameDistribution.two_point(0.5, 1.5, 0.5),
}

_timings = {}


def _report(tag, ok, detail):
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'}: {detail}")


@lru_cache(maxsize=None)
def det_sweep():
    """M(rho; 0) and M(rho; 1/2) over the standard sweep, one factorization per rho."""
    t0 = time.perf_counter()
    table = {}
    for rho in RHO_SWEEP:
        op = build_operator(ProblemSpec(rho=rho))
        table[rho] = (mean_frames(op, 0.0).M, mean_frames(op, 0.5).M)
    _timings["det_sweep"] = time.perf_counter() - t0
    return table


@lru_cache(maxsize=None)
def boundary_fit():
    return fit_boundary([(r, det_sweep()[r][0]) for r in RHO_SWEEP])


@lru_cache(maxsize=None)
def bulk_fit():
    return fit_bulk([(r, det_sweep()[r][1]) for r in RHO_SWEEP])


@lru_cache(maxsize=None)
def gap_data():
    pts = []
    for rho in RHO_GAP:
        lam, _, _ = spectral_pair(build_operator(ProblemSpec(rho=rho)))
        pts.append((rho, 1.0 - lam))
    return tuple(pts)


@lru_cache(maxsize=None)
def random_law_fit(label):
    mu = RANDOM_LAWS[label]
    data = []
    for rho in RHO_SWEEP:
        op = build_averaged_operator(ProblemSpec(rho=rho), mu)
        data.append((rho, mean_frames(op, 0.0).M))
    return fit_boundary(data)


def test_criterion_01_boundary_fit_constants():
    fit = boundary_fit()
    A, B = fit.coefficients["A"], fit.coefficients["B"]
    ok = abs(A - 0.70726) <= 1e-3 and abs(B - (-0.17609)) <= 2e-3
    _report("01", ok,
            f"A={A:.6f} (target 0.70726 +-1e-3), B={B:.6f} (target -0.17609 "
            f"+-2e-3); sweep {_timings['det_sweep']:.1f}s")
    assert abs(A - 0.70726) <= 1e-3
    assert abs(B - (-0.17609)) <= 2e-3
    # stability under halving the fit window from either side
    data = [(r, det_sweep()[r][0]) for r in RHO_SWEEP]
    for sub in (fit_boundary([d for d in data if d[0] <= 110.0]),
                fit_boundary([d for d in data if d[0] >= 110.0])):
        assert abs(sub.coefficients["A"] - 0.70726) <= 1e-3
        assert abs(sub.coefficients["B"] - (-0.17609)) <= 2e-3


def test_criterion_02_boundary_constant_identity():
    B = boundary_fit().coefficients["B"]
    ok = abs((B + 1.0) - BOUNDARY_CONST) <= 2e-3
    _report("02", ok, f"B+1={B + 1.0:.6f} vs |zeta(1/2)|/sqrt(pi)="
                      f"{BOUNDARY_CONST:.6f} (tol 2e-3)")
    assert abs((B + 1.0) - 0.823917) <= 2e-3


def test_criterion_03_bulk_fit_constants():
    fit = bulk_fit()
    a, b, c = (fit.coefficients[k] for k in ("a", "b", "c"))
    C = fit.derived["C"]
    ok = (abs(a - 0.25) <= 1e-3 and abs(b - 0.583014) <= 5e-3
          and abs(c - (-0.426408)) <= 2e-2 and abs(C - 0.573592) <= 2e-2)
    _report("03", ok, f"a={a:.7f} b={b:.6f} c={c:.6f} C={C:.6f} "
                      f"(targets 0.25/0.583014/-0.426408/0.573592)")
    assert abs(a - 0.250000) <= 1e-3
    assert abs(b - 0.583014) <= 5e-3
    assert abs(c - (-0.426408)) <= 2e-2
    assert abs(C - 0.573592) <= 2e-2
    data = [(r, det_sweep()[r][1]) for r in RHO_SWEEP]
    for sub in (fit_bulk([d for d in data if d[0] <= 110.0]),
                fit_bulk([d for d in data if d[0] >= 110.0])):
        assert abs(sub.coefficients["a"] - 0.25) <= 1e-3
        assert abs(sub.coefficients["b"] - 0.583014) <= 5e-3
        assert abs(sub.coefficients["c"] - (-0.426408)) <= 2e-2


@pytest.mark.xfail(
    strict=True,
    reason="the pinned gap correction +2.332056/rho^3 contradicts the measured "
           "spectrum: three independent routes (dense eigensolve, power "
           "iteration, survival ratios) agree the correction is negative, "
           "beta ~= -2*pi^2*b ~= -11.5, as required for E[tau] ~ a0/(1-lambda0) "
           "to produce a positive linear term b; see the companion test",
)
def test_criterion_04_gap_fit_as_pinned():
    fit = fit_gap(list(gap_data()))
    intercept, beta = fit.coefficients["intercept"], fit.coefficients["beta"]
    ok = (abs(intercept - math.pi**2 / 2.0) <= 1e-3 and abs(beta - 2.332) <= 0.03)
    _report("04", ok, f"intercept={intercept:.6f} (target {math.pi**2 / 2:.6f} "
                      f"+-1e-3), beta={beta:.4f} (target 2.332 +-0.03); "
                      f"expected failure, see companion criterion 04v")
    assert abs(intercept - math.pi**2 / 2.0) <= 1e-3
    assert abs(beta - 2.332) <= 0.03


def test_criterion_04v_gap_fit_verified_physics():
    # the spectrum that the operator actually has: gap*rho^2 has intercept
    # pi^2/2 and a NEGATIVE 1/rho correction tied to the bulk linear term
    # through E[tau] ~ a0/(1-lambda0), i.e. beta = -2 pi^2 b
    rho = np.array([p[0] for p in gap_data()])
    y = np.array([p[1] for p in gap_data()]) * rho**2
    design = np.column_stack([np.ones_like(rho), 1.0 / rho, 1.0 / rho**2])
    intercept, beta3, _ = np.linalg.lstsq(design, y, rcond=None)[0]
    b = bulk_fit().coefficients["b"]
    beta_implied = -2.0 * math.pi**2 * b
    two_term = fit_gap(list(gap_data())).coefficients["beta"]
    ok = (abs(intercept - math.pi**2 / 2.0) <= 1e-3
          and abs(beta3 - beta_implied) <= 0.15 and two_term < 0.0)
    _report("04v", ok,
            f"3-term intercept={intercept:.6f} (pi^2/2={math.pi**2 / 2:.6f}), "
            f"beta={beta3:.4f} vs -2 pi^2 b={beta_implied:.4f}; "
            f"2-term beta={two_term:.4f} (negative)")
    assert abs(intercept - math.pi**2 / 2.0) <= 1e-3
    assert abs(beta3 - beta_implied) <= 0.15
    assert two_term < 0.0


def test_criterion_05_effective_exponents():
    results = {}
    for window, target in (((10.0, 30.0), 1.87), ((30.0, 100.0), 1.96)):
        pts = loglog_window_points(window[0], window[1], 20)
        alpha = effective_exponent([(r, bulk_law(r)) for r in pts], window)
        results[window] = alpha
        assert abs(alpha - target) <= 0.02
    _report("05", True,
            f"alpha[10,30]={results[(10.0, 30.0)]:.4f} (1.87 +-0.02), "
            f"alpha[30,100]={results[(30.0, 100.0)]:.4f} (1.96 +-0.02)")


def test_criterion_06_monte_carlo_cross_validation():
    t0 = time.perf_counter()
    details = []
    worst = 0.0
    for rho in (5.0, 10.0, 20.0):
        op = build_operator(ProblemSpec(rho=rho))
        for y0 in (0.1, 0.5):
            mc = simulate_tau(rho, y0, 100_000, seed=SEED)
            reference = mean_frames(op, y0).mean_tau
            z = (mc.mean_tau - reference) / mc.std_error
            worst = max(worst, abs(z))
            details.append(f"rho={rho:g},y0={y0:g}:z={z:+.2f}")
            assert abs(mc.mean_tau - reference) < 3.0 * mc.std_error
    _report("06", True, "; ".join(details) +
            f"; max|z|={worst:.2f} ({time.perf_counter() - t0:.0f}s)")


def test_criterion_07_self_averaging():
    from strobofp import self_averaging_check

    details = []
    for label, mu in RANDOM_LAWS.items():
        report = self_averaging_check(ProblemSpec(rho=10.0, y0=0.5), mu, 100_000, seed=SEED)
        details.append(f"{label}:z={report.z_score:+.2f}")
        assert report.passed, f"{label} failed self-averaging: z={report.z_score}"
    _report("07", True, "; ".join(details))


def test_criterion_08_slope_universality_and_ordering():
    det = boundary_fit()
    A_det, B_det = det.coefficients["A"], det.coefficients["B"]
    details = [f"det: A={A_det:.6f} B={B_det:.6f}"]
    for label in RANDOM_LAWS:
        fit = random_law_fit(label)
        A_mu, B_mu = fit.coefficients["A"], fit.coefficients["B"]
        details.append(f"{label}: dA={A_mu - A_det:+.2e} dB={B_mu - B_det:+.5f}")
        assert abs(A_mu - A_det) <= 1e-3, f"slope changed under {label}"
        assert B_mu > B_det, f"constant not increased under {label}"
    _report("08", True, "; ".join(details))


def test_criterion_09_dirichlet_limit():
    rho = 200.0
    op = build_operator(ProblemSpec(rho=rho))
    details = []
    for y0 in (0.25, 0.5, 0.75):
        ratio = mean_frames(op, y0).M / (rho**2 * y0 * (1.0 - y0))
        details.append(f"y0={y0:g}: {ratio:.4f}")
        assert 0.98 <= ratio <= 1.05
    _report("09", True, "ratios " + "; ".join(details) + " in [0.98, 1.05]")


def test_criterion_10_property_suites(monkeypatch):
    # sub-stochasticity, fixed and interval-averaged kernels
    for op in (build_operator(ProblemSpec(rho=20.0)),
               build_averaged_operator(ProblemSpec(rho=10.0),
                                       FrameDistribution.exponential())):
        sums = op.row_sums()
        assert np.all(sums > 0.0) and np.all(sums <= 1.0)

    # survival monotonicity
    op10 = build_operator(ProblemSpec(rho=10.0))
    values = survival_sequence(op10, 0.5, 300).values
    assert values[0] == 1.0 and np.all(values > 0.0)
    assert np.all(np.diff(values) <= 1e-15)

    # mirror symmetry of the mean
    op20 = build_operator(ProblemSpec(rho=20.0))
    m_lo, m_hi = mean_frames(op20, 0.3).M, mean_frames(op20, 0.7).M
    assert abs(m_lo - m_hi) / m_lo < 1e-12

    # Neumann series vs resolvent, tail-corrected
    stats = mean_frames(op10, 0.5)
    lam, _, _ = spectral_pair(op10)
    terms = int(np.ceil(10.0 / (1.0 - lam)))
    partial = neumann_partial_sum(op10, 0.5, terms)
    s_t = survival_sequence(op10, 0.5, terms).values[terms]
    assert abs(partial + s_t * lam / (1.0 - lam) - stats.M) < 1e-6 * stats.M

    # exact-model recovery in all fitters
    rhos = np.arange(20.0, 201.0, 10.0)
    fb = fit_boundary([(r, 0.7 * r - 0.2 + 0.3 / r) for r in rhos])
    assert fb.rms_residual < 1e-9
    fk = fit_bulk([(r, 0.25 * r**2 + 0.58 * r - 0.43) for r in rhos])
    assert fk.rms_residual < 1e-9
    fg = fit_gap([(r, 4.9348 / r**2 + 2.332 / r**3) for r in rhos])
    assert fg.rms_residual < 1e-12

    # Monte Carlo bit-reproducibility across worker counts
    monkeypatch.setenv("STROBOFP_THREADS", "1")
    one = simulate_tau(5.0, 0.5, 2000, seed=99)
    monkeypatch.setenv("STROBOFP_THREADS", "3")
    three = simulate_tau(5.0, 0.5, 2000, seed=99)
    assert np.array_equal(one.histogram, three.histogram)
    assert one.mean_tau == three.mean_tau

    _report("10", True, "sub-stochasticity, monotonicity, mirror symmetry, "
                        "series equivalence, exact recovery, MC reproducibility")


def test_supplementary_asymptote_agreement():
    # boundary law has analytic constants: compare against the near-converged
    # operator (doubled grid; the default grid carries a +1.5e-4*rho slope
    # bias that the C/rho fit term absorbs).  The bulk law's linear and
    # constant coefficients are grid-fitted reproduction targets, so the
    # default grid is the consistent comparison there.
    details = []
    for rho in (20.0, 50.0, 100.0, 200.0):
        fine = build_operator(ProblemSpec(rho=rho, n_grid=int(36 * rho)))
        dev_b = abs(mean_frames(fine, 0.0).M + 1.0 - boundary_law(rho))
        default = build_operator(ProblemSpec(rho=rho))
        dev_k = abs(mean_frames(default, 0.5).M + 1.0 - bulk_law(rho))
        details.append(f"rho={rho:g}: b={dev_b:.4f}<={5 / rho:.3f} "
                       f"k={dev_k:.4f}<={10 / rho:.3f}")
        assert dev_b <= 5.0 / rho
        assert dev_k <= 10.0 / rho
    _report("asymptote-agreement", True, "; ".join(details))
