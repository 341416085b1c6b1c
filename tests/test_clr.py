"""Quadrature for the weak-instrument tail law and its screen truncation."""

import math

import numpy as np
import pytest
from scipy import stats

from ivselect import (
    ClrTruncation,
    QuadratureConfig,
    clr_conditional_inference,
    clr_tail,
    covariance_estimates,
    clr_components,
    dgp_from_r,
    f_statistic,
    generate,
    k4_constant,
    penalty_lambda,
    truncation_from_estimates,
)
from ivselect.errors import BranchError, QuadratureError, TruncationError


def test_k4_exact_values():
    assert k4_constant(3) == pytest.approx(0.5, abs=1e-14)
    assert k4_constant(2) == pytest.approx(1.0 / math.pi, abs=1e-14)


def test_k4_rejects_single_instrument():
    with pytest.raises(Exception):
        k4_constant(1)


@pytest.mark.parametrize("p", range(2, 11))
def test_k4_normalizes_the_angular_weight(p):
    # K4 * integral of (1-u^2)^((p-3)/2) over [-1,1] must be 1
    theta = np.linspace(-np.pi / 2, np.pi / 2, 20001)
    w = np.cos(theta) ** (p - 2)  # includes the substitution Jacobian
    integral = float(np.trapezoid(w, theta))
    assert k4_constant(p) * integral == pytest.approx(1.0, abs=1e-8)


def test_tail_limit_small_t():
    # the u2 = 0 ray keeps a vanishing boundary layer, so convergence to
    # 1 is in t, not machine precision
    assert clr_tail(1e-12, 3.0, 5) == pytest.approx(1.0, abs=1e-4)
    assert clr_tail(1e-12, 3.0, 5) > clr_tail(1e-6, 3.0, 5)
    assert clr_tail(0.0, 3.0, 5) == 1.0


def test_tail_no_truncation_zero_qr_is_chi2():
    for p in (2, 4, 7):
        for t in (0.5, 2.5, 6.0):
            assert clr_tail(t, 0.0, p) == pytest.approx(stats.chi2.sf(t, p), abs=1e-9)


def test_tail_large_qr_approaches_chi2_one():
    for t in (0.5, 1.0, 2.0, 4.0):
        assert clr_tail(t, 1e6, 5) == pytest.approx(stats.chi2.sf(t, 1), abs=1e-4)


def test_tail_strictly_decreasing_in_t():
    ts = np.linspace(0.05, 12.0, 50)
    vals = np.array([clr_tail(t, 3.0, 5) for t in ts])
    assert np.all(np.diff(vals) < 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_tail_doubling_panels_stable():
    quad = QuadratureConfig()
    for p, q_r, t in ((2, 1.0, 1.0), (5, 3.0, 2.0), (10, 8.0, 5.0)):
        base = clr_tail(t, q_r, p, quad=quad)
        doubled = clr_tail(t, q_r, p, quad=QuadratureConfig(panels=2 * quad.panels))
        assert abs(base - doubled) < quad.tol


def _weak_data(seed=0, n=400, p=4, r=0.05):
    return generate(dgp_from_r(r, 0.6, n=n, p=p, seed=seed))


def test_truncation_coefficients_reproduced_from_omega():
    data = _weak_data(seed=1)
    beta0 = 0.8
    est = covariance_estimates(data, beta0)
    comps = clr_components(data, beta0, est)
    lam2 = penalty_lambda(data, 10.0) ** 2
    tr = truncation_from_estimates(est.omega_hat, beta0, lam2, comps.q_r, data.p)

    om = est.omega_hat
    b0 = np.array([1.0, -beta0])
    a0 = np.array([beta0, 1.0])
    bob = float(b0 @ om @ b0)
    alpha = (om[0, 1] - beta0 * om[1, 1]) / math.sqrt(bob)
    assert tr.d0 == pytest.approx(alpha**2, abs=1e-10)
    # two equivalent closed forms for d2
    assert tr.d2 == pytest.approx(float(np.linalg.det(om)) / bob, rel=1e-10)
    assert tr.d2 == pytest.approx(1.0 / float(a0 @ np.linalg.solve(om, a0)), rel=1e-10)
    assert abs(tr.d1) == pytest.approx(2.0 * math.sqrt(tr.d0 * tr.d2), rel=1e-10)
    assert tr.lambda_sq == pytest.approx(lam2)


def test_truncation_recovers_screen_quadratic():
    # the screen statistic ||S||^2 = D'P_Z D decomposes exactly in
    # (Q_U, Q_UR, Q_R) coordinates with the truncation coefficients
    for seed in range(4):
        data = _weak_data(seed=seed, r=0.15)
        beta0 = 0.7
        est = covariance_estimates(data, beta0)
        comps = clr_components(data, beta0, est)
        lam2 = penalty_lambda(data, 10.0) ** 2
        tr = truncation_from_estimates(est.omega_hat, beta0, lam2, comps.q_r, data.p)
        lhs = tr.d0 * comps.q_u + tr.d1 * comps.q_ur + tr.d2 * comps.q_r
        assert lhs == pytest.approx(data.moments.s2, rel=1e-10)


def test_truncated_tail_bounded_and_decreasing():
    data = _weak_data(seed=2)
    beta0 = 1.0
    est = covariance_estimates(data, beta0)
    comps = clr_components(data, beta0, est)
    lam2 = penalty_lambda(data, 10.0) ** 2
    tr = truncation_from_estimates(est.omega_hat, beta0, lam2, comps.q_r, data.p)
    ts = np.linspace(0.05, 10.0, 30)
    vals = np.array([clr_tail(t, comps.q_r, data.p, trunc=tr) for t in ts])
    assert np.all((vals >= 0) & (vals <= 1 + 1e-12))
    assert np.all(np.diff(vals) < 1e-10)


def test_empty_truncation_rejected():
    # conditioning event impossible: d2*q_R alone already exceeds lambda^2
    tr = ClrTruncation(d0=1.0, d1=0.0, d2=1.0, lambda_sq=1.0, q_R=50.0, p=4)
    with pytest.raises(TruncationError):
        clr_tail(2.0, 50.0, 4, trunc=tr)


def test_quadrature_nonconvergence_raises():
    with pytest.raises(QuadratureError):
        clr_tail(2.0, 3.0, 5, quad=QuadratureConfig(panels=4, tol=1e-15))


def test_conditional_inference_requires_failed_screen():
    data = generate(dgp_from_r(1.0, 0.6, n=500, p=4, seed=3))
    assert f_statistic(data) >= 10.0
    with pytest.raises(BranchError):
        clr_conditional_inference(data, 0.0, c0=10.0)


def test_conditional_near_naive_when_screen_far():
    # F << C0 leaves the truncation nearly vacuous
    data = _weak_data(seed=4, r=0.02)
    assert f_statistic(data) < 3.0
    report = clr_conditional_inference(data, 1.0, c0=10.0)
    assert abs(report.conditional_pvalue - report.naive_pvalue) < 0.005
    assert report.diagnostics["branch"] == "clr"
    assert report.diagnostics["truncation_renormalized"]


def test_conditional_inference_reports_intervals():
    data = _weak_data(seed=5, r=0.05)
    report = clr_conditional_inference(data, 0.5, c0=10.0)
    assert report.beta0 == 0.5
    assert 0.0 <= report.conditional_pvalue <= 1.0
    assert 0.0 <= report.naive_pvalue <= 1.0
    # weak instruments: both intervals wide, conditional close to naive
    if not (report.naive_ci.lower_unbounded or report.naive_ci.upper_unbounded):
        assert report.naive_ci.width > 0
