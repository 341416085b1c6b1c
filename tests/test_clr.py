"""Quadrature for the weak-instrument tail law and its screen truncation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

import ivselect.report
from ivselect import (
    ClrTruncation,
    QuadratureConfig,
    clr_conditional_inference,
    clr_tail,
    clr_tails,
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
from ivselect.model import Moments
from ivselect.sampler import _generator
from ivselect.simulate import _draw_batch
from ivselect.teststats import clr_statistic_from_q, clr_statistics


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


# ------------------------------------------------------ batched tails


def _reference_tail(t, q_r, p, trunc=None, quad=QuadratureConfig()):
    """One law at a time, every chi2 node through scipy.stats on both
    sides of np.where: the algorithm clr_tails batches.  Returns the
    tail (NaN for an event mass below 1e-12) and the panels it took."""
    if t <= 0.0:
        return 1.0, 0

    def mass(lo, hi):
        lo = np.maximum(lo, 0.0)
        hi = np.maximum(hi, lo)
        m = np.where(
            lo >= p,
            stats.chi2.sf(lo, p) - stats.chi2.sf(hi, p),
            stats.chi2.cdf(hi, p) - stats.chi2.cdf(lo, p),
        )
        return np.clip(m, 0.0, 1.0)

    panels = quad.panels + (-quad.panels) % 4
    for _ in range(7):
        theta = np.linspace(-np.pi / 2.0, np.pi / 2.0, panels + 1)
        u2, w, h = np.sin(theta), np.cos(theta) ** (p - 2), np.pi / panels
        thresh = (q_r + t) / (1.0 + q_r * u2**2 / t)
        if trunc is None:
            num, den = stats.chi2.sf(thresh, p) * w, w
        else:
            c = trunc.d2 * trunc.q_R - trunc.lambda_sq
            if trunc.d0 <= 1e-14 * (trunc.d2 * trunc.q_R + trunc.lambda_sq + 1.0):
                lo, hi = np.zeros_like(u2), np.full_like(u2, np.inf)
                ok = np.full(u2.shape, c <= 0)
            else:
                b = trunc.d1 * u2 * math.sqrt(trunc.q_R)
                disc = b * b - 4.0 * trunc.d0 * c
                root = np.sqrt(np.maximum(disc, 0.0))
                x_lo, x_hi = (-b - root) / (2.0 * trunc.d0), (-b + root) / (2.0 * trunc.d0)
                ok = (disc >= 0.0) & (x_hi > 0.0)
                lo, hi = np.maximum(x_lo, 0.0) ** 2, np.maximum(x_hi, 0.0) ** 2
            den = np.where(ok, mass(lo, hi), 0.0) * w
            num = np.where(ok, mass(np.maximum(lo, thresh), hi), 0.0) * w
        i_num, i_den = integrate.simpson(num, dx=h), integrate.simpson(den, dx=h)
        err = max(
            abs(i_num - integrate.simpson(num[::2], dx=2.0 * h)),
            abs(i_den - integrate.simpson(den[::2], dx=2.0 * h)),
        )
        if err / 15.0 <= quad.tol:
            break
        panels *= 2
    else:
        raise QuadratureError("reference not converged")
    if trunc is not None and k4_constant(p) * i_den < 1e-12:
        return math.nan, panels
    return float(np.clip(i_num / i_den, 0.0, 1.0)), panels


def _weak_laws(data, beta0s, c0=10.0):
    est = covariance_estimates(data, 1.0)
    lr, q_r = clr_statistics(data, beta0s, est)
    lam2 = penalty_lambda(data, c0) ** 2
    return lr, q_r, truncation_from_estimates(est.omega_hat, np.asarray(beta0s), lam2, q_r, data.p)


_COEFS = ("d0", "d1", "d2", "lambda_sq", "q_R")


def _law(trunc, k, n):
    """Law k of the n laws of a batched truncation (None stays None)."""
    if trunc is None:
        return None
    return replace(trunc, **{name: float(np.broadcast_to(getattr(trunc, name), n)[k]) for name in _COEFS})


def _underflowing_data():
    # Y nearly a multiple of D (sigma12 = 0.99): the plug-in failure
    # event has mass below 1e-12 on a band of nulls above the estimate
    return generate(dgp_from_r(0.2, 0.99, n=200, p=2, seed=1))


def _check_against_reference(t, q_r, p, trunc, quad=QuadratureConfig()):
    tails, underflow = clr_tails(t, q_r, p, trunc, quad)
    ref, panels = np.array(
        [_reference_tail(t[k], q_r[k], p, _law(trunc, k, t.size), quad) for k in range(t.size)]
    ).T
    np.testing.assert_array_equal(underflow, np.isnan(ref))
    assert np.isnan(tails[underflow]).all()
    np.testing.assert_allclose(tails[~underflow], ref[~underflow], rtol=0.0, atol=1e-13)
    return underflow, panels


@pytest.mark.parametrize(
    "quad",
    [QuadratureConfig(), QuadratureConfig(panels=128)],
    ids=["default", "refined"],
)
def test_batched_tails_match_one_law_reference(quad):
    p = 3
    data = _weak_data(seed=2, p=p)
    lr, q_r, trunc = _weak_laws(data, np.linspace(-3.0, 4.0, 9))
    # the conditional laws, then a vacuous and an impossible flat event,
    # an impossible curved one, and t = 0
    t = np.concatenate([lr, [2.0, 2.0, 2.0, 0.0]])
    q = np.concatenate([q_r, [3.0, 3.0, 50.0, 1.0]])
    trunc = ClrTruncation(
        d0=np.append(trunc.d0, [0.0, 0.0, 1.0, 1.0]),
        d1=np.append(trunc.d1, [0.0, 0.0, 0.0, 0.5]),
        d2=np.append(trunc.d2, [0.5, 2.0, 1.0, 1.0]),
        lambda_sq=np.append(np.broadcast_to(trunc.lambda_sq, lr.shape), [4.0, 4.0, 1.0, 4.0]),
        q_R=q,
        p=p,
    )
    underflow, panels = _check_against_reference(t, q, p, trunc, quad)
    assert list(np.flatnonzero(underflow)) == [10, 11]
    # naive laws at the first four nulls
    naive_underflow, naive_panels = _check_against_reference(lr[:4], q_r[:4], p, None, quad)
    assert not naive_underflow.any()
    if quad.panels == 128:
        # laws stop refining at different depths
        panels = np.concatenate([panels[:9], naive_panels])
        assert len(set(panels)) >= 2 and panels.max() > 128


def test_batched_tails_match_reference_where_events_underflow():
    data = _underflowing_data()
    lr, q_r, trunc = _weak_laws(data, np.linspace(1.0, 2.6, 33))
    underflow, _ = _check_against_reference(lr, q_r, data.p, trunc)
    assert underflow.any() and not underflow.all()


def test_tails_reject_mismatched_inputs():
    tr = ClrTruncation(d0=1.0, d1=0.5, d2=1.0, lambda_sq=4.0, q_R=1.0, p=3)
    with pytest.raises(TruncationError):
        clr_tails([1.0, 1.0], [1.0, 2.0], 3, tr)
    with pytest.raises(TruncationError):
        clr_tails([1.0], [1.0], 4, tr)
    with pytest.raises(ValueError, match="one entry per law"):
        clr_tails([1.0, 1.0], [1.0], 3)
    with pytest.raises(ValueError, match="must be >= 0"):
        clr_tails([1.0], [-1.0], 3)


def test_underflowed_nulls_reported():
    data = _underflowing_data()
    assert f_statistic(data) < 10.0
    report = clr_conditional_inference(data, 1.0, c0=10.0)
    nulls = report.diagnostics["mass_underflow_nulls"]
    assert report.diagnostics["mass_underflow_points"] == len(nulls) > 0
    assert nulls == sorted(nulls)
    # every listed null's conditioning event underflows
    lr, q_r, trunc = _weak_laws(data, nulls)
    for k, (t, q) in enumerate(zip(lr, q_r)):
        with pytest.raises(TruncationError):
            clr_tail(t, q, data.p, trunc=_law(trunc, k, len(nulls)))
    assert report.conditional_ci.upper < nulls[0]
    assert clr_conditional_inference(data, 1.0, c0=10.0).to_dict() == report.to_dict()


def test_interval_end_set_by_underflow_band_is_labelled():
    # the conditional p-value is 0.114 at the last retained null; the
    # grid nulls just above it underflow, so no crossing sets that end
    data = generate(dgp_from_r(0.3, 0.99, n=200, p=2, seed=1))
    report = clr_conditional_inference(data, 1.0, c0=10.0)
    diag = report.diagnostics
    assert report.conditional_ci.upper == pytest.approx(1.48385, abs=1e-5)
    assert diag["conditional_grid"]["ends"] == {"lower": "crossing", "upper": "underflow"}
    assert diag["mass_underflow_nulls"][0] > report.conditional_ci.upper
    assert diag["naive_grid"]["ends"] == {"lower": "crossing", "upper": "crossing"}


def test_underflowed_null_is_refused_before_the_scan(monkeypatch):
    # at beta0 = 1.6 the failure event's mass underflows, so the branch
    # refuses the null before it inverts either curve; at 2.0, further out,
    # the event has mass again and the branch answers
    scans = []
    real = ivselect.report.invert_pvalue_curve

    def spy(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(ivselect.report, "invert_pvalue_curve", spy)
    data = generate(dgp_from_r(0.3, 0.99, n=200, p=2, seed=1))
    with pytest.raises(TruncationError, match="conditioning event has mass < 1e-12"):
        clr_conditional_inference(data, 1.6, c0=10.0)
    assert scans == []
    report = clr_conditional_inference(data, 2.0, c0=10.0)
    assert len(scans) == 2
    assert 0.0 <= report.conditional_pvalue <= 1.0


def _assert_truncations_match(trunc, singles, t, q_r, p):
    for name in _COEFS:
        ref = np.array([getattr(one, name) for one in singles])
        np.testing.assert_array_equal(np.broadcast_to(getattr(trunc, name), ref.shape), ref)
    tails, underflow = clr_tails(t, q_r, p, trunc)
    assert not underflow.any()
    np.testing.assert_array_equal(tails, [clr_tail(*law, p, one) for *law, one in zip(t, q_r, singles)])


def test_batched_truncation_equals_per_null_builds():
    # an array of nulls on one dataset
    data = _weak_data(seed=3)
    nulls = np.linspace(-2.0, 3.0, 11)
    lr, q_r, trunc = _weak_laws(data, nulls)
    est = covariance_estimates(data, 1.0)
    lam2 = penalty_lambda(data, 10.0) ** 2
    singles = [truncation_from_estimates(est.omega_hat, b, lam2, q, data.p) for b, q in zip(nulls, q_r)]
    _assert_truncations_match(trunc, singles, lr, q_r, data.p)
    # a batch of replications at one null, each with its own covariance
    rng = _generator(4, 1)
    mom = Moments.of(*_draw_batch(dgp_from_r(0.05, 0.6, n=300, p=4, seed=4), 12, rng))
    est = covariance_estimates(mom, 1.0)
    comps = clr_components(mom, 1.0, est)
    lam2 = penalty_lambda(mom, 10.0) ** 2
    trunc = truncation_from_estimates(est.omega_hat, 1.0, lam2, comps.q_r, mom.p)
    singles = [
        truncation_from_estimates(est.omega_hat[i], 1.0, float(lam2[i]), comps.q_r[i], mom.p)
        for i in range(12)
    ]
    lr = clr_statistic_from_q(comps.q_u, comps.q_ur, comps.q_r)
    _assert_truncations_match(trunc, singles, lr, comps.q_r, mom.p)
