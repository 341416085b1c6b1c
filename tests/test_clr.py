"""Quadrature for the weak-instrument tail law and its screen truncation."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

import ivselect.clr
import ivselect.report
from ivselect import (
    ClrTruncation,
    QuadratureConfig,
    clr_conditional_inference,
    clr_tail,
    clr_tails,
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
    comps = clr_components(data, beta0)
    lam2 = penalty_lambda(data, 10.0) ** 2
    tr = truncation_from_estimates(data.moments.omega, beta0, lam2, comps.q_r, data.p)

    om = data.moments.omega
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
        comps = clr_components(data, beta0)
        lam2 = penalty_lambda(data, 10.0) ** 2
        tr = truncation_from_estimates(data.moments.omega, beta0, lam2, comps.q_r, data.p)
        lhs = tr.d0 * comps.q_u + tr.d1 * comps.q_ur + tr.d2 * comps.q_r
        assert lhs == pytest.approx(data.moments.s2, rel=1e-10)


def test_truncated_tail_bounded_and_decreasing():
    data = _weak_data(seed=2)
    beta0 = 1.0
    comps = clr_components(data, beta0)
    lam2 = penalty_lambda(data, 10.0) ** 2
    tr = truncation_from_estimates(data.moments.omega, beta0, lam2, comps.q_r, data.p)
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
    # a NaN statistic gives NaN integrals, whose error never settles
    with pytest.raises(QuadratureError, match="not converged for 1 of 2 laws: error nan"):
        clr_tails([2.0, math.nan], [3.0, 3.0], 5)


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
    if not (math.isinf(report.naive_ci.lower) or math.isinf(report.naive_ci.upper)):
        assert report.naive_ci.width > 0


# ------------------------------------------------------ batched tails


def _weak_laws(data, beta0s, c0=10.0):
    lr, q_r = clr_statistics(data, beta0s)
    lam2 = penalty_lambda(data, c0) ** 2
    return lr, q_r, truncation_from_estimates(data.moments.omega, np.asarray(beta0s), lam2, q_r, data.p)


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


def _check_against_one_law(t, q_r, p, trunc, quad=QuadratureConfig()):
    """The batched tails against each law alone: the same tail as
    clr_tail to 1e-13 (which refuses an underflowed law), and the same
    nodes as its one-law clr_tails."""
    law = clr_tails(t, q_r, p, trunc, quad)
    for k in range(t.size):
        one = _law(trunc, k, t.size)
        assert law.nodes[k] == clr_tails(t[k : k + 1], q_r[k : k + 1], p, one, quad).nodes[0]
        if law.underflow[k]:
            assert np.isnan(law.tail[k])
            with pytest.raises(TruncationError):
                clr_tail(t[k], q_r[k], p, one, quad)
        else:
            assert law.tail[k] == pytest.approx(clr_tail(t[k], q_r[k], p, one, quad), abs=1e-13)
    return law


@pytest.mark.parametrize(
    "quad",
    [QuadratureConfig(), QuadratureConfig(tol=1e-14)],
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
    law = _check_against_one_law(t, q, p, trunc, quad)
    assert list(np.flatnonzero(law.underflow)) == [10, 11]
    assert law.nodes[-1] == 0 and law.error[-1] == 0.0 and law.tail[-1] == 1.0
    # naive laws at the first four nulls
    naive = _check_against_one_law(lr[:4], q_r[:4], p, None, quad)
    assert not naive.underflow.any()
    if quad.tol < QuadratureConfig().tol:
        # laws stop refining at different depths: the underflowed events'
        # integrals meet the tight tol at once, the others refine
        assert len(set(law.nodes[:12])) >= 2 and law.nodes.max() > law.nodes[10]
        assert (law.error <= quad.tol).all() and (naive.error <= quad.tol).all()


def test_batched_tails_match_reference_where_events_underflow():
    data = _underflowing_data()
    lr, q_r, trunc = _weak_laws(data, np.linspace(1.0, 2.6, 33))
    law = _check_against_one_law(lr, q_r, data.p, trunc)
    assert law.underflow.any() and not law.underflow.all()


def test_law_with_more_nodes_than_a_block_is_integrated_in_runs_of_panels(monkeypatch):
    # a law is split over runs of its panels once it alone has more than
    # _BLOCK_NODES nodes, so memory stays bounded as panels grow; its
    # partial integrals add up to the unblocked tails
    data = _weak_data(seed=2, p=3)
    lr, q_r, trunc = _weak_laws(data, np.array([-1.0, 2.0]))
    unblocked = [(law, clr_tails(lr, q_r, 3, law, QuadratureConfig(panels=64))) for law in (trunc, None)]
    deep = clr_tails(lr[:1], q_r[:1], 3, _law(trunc, 0, 2), QuadratureConfig(panels=4096))
    assert deep.nodes[0] > ivselect.clr._BLOCK_NODES
    np.testing.assert_allclose(deep.tail, unblocked[0][1].tail[:1], rtol=1e-13, atol=0.0)
    # a naive law at 4096 panels peaks below twice its peak at 512, where it
    # still fits one block (eight times, unblocked)
    peaks = []
    for panels in (512, 4096):
        tracemalloc.start()
        clr_tails([1.0], [1.0], 2, None, QuadratureConfig(panels=panels))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]
    monkeypatch.setattr(ivselect.clr, "_BLOCK_NODES", 1 << 12)
    for law, want in unblocked:
        got = clr_tails(lr, q_r, 3, law, QuadratureConfig(panels=64))
        np.testing.assert_allclose(got.tail, want.tail, rtol=1e-13, atol=0.0)


# ------------------------------------------------------ independent oracles


def _event(u2, q_r, trunc):
    """(lo, hi) of the screen event in q_U at one u2 (d0 > 0), None when
    it is empty."""
    b = trunc.d1 * u2 * math.sqrt(q_r)
    disc = b * b - 4.0 * trunc.d0 * (trunc.d2 * q_r - trunc.lambda_sq)
    if disc < 0.0 or -b + math.sqrt(disc) <= 0.0:
        return None
    root = math.sqrt(disc)
    return max(-b - root, 0.0) ** 2 / (4.0 * trunc.d0**2), (-b + root) ** 2 / (4.0 * trunc.d0**2)


def _kinks(t, q_r, trunc):
    """u2 where the event appears, and u2 where thresh meets an end of
    the event's interval: sign changes on a grid geometric about u2 = 0,
    each refined by brentq."""
    thresh = lambda u2: (q_r + t) / (1.0 + q_r * u2 * u2 / t)
    c = trunc.d2 * q_r - trunc.lambda_sq

    def disc(u2):
        return (trunc.d1 * u2) ** 2 * q_r - 4.0 * trunc.d0 * c

    def gap(end):
        def f(u2):
            ev = _event(u2, q_r, trunc)
            return math.nan if ev is None else thresh(u2) - ev[end]

        return f

    def roots(f, grid):
        vals = np.array([f(u) for u in grid])
        return [
            optimize.brentq(f, grid[k], grid[k + 1], xtol=1e-300, rtol=1e-15)
            for k in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        ]

    mags = np.geomspace(1e-13, 1.0, 1500)
    grid = np.concatenate([-mags[::-1], [0.0], mags])
    appear = roots(disc, grid)
    # the ends are NaN outside the event: add nodes just either side of
    # where it appears
    grid = np.sort(np.concatenate([grid, np.outer(appear, [1.0 - 1e-12, 1.0 + 1e-12]).ravel()]))
    return appear, roots(gap(0), grid) + roots(gap(1), grid)


def _quad_tail(t, q_r, p, trunc=None):
    """The tail by adaptive quad in theta, split at 0, at the _kinks, and
    at a ladder of decades from a tenth of the notch width sqrt(t/q_r)
    out to u2 = 1, so that no segment hides the step of the chi2 tail:
    no code of the engine's."""
    thresh = lambda u2: (q_r + t) / (1.0 + q_r * u2 * u2 / t)

    def part(theta, tail):
        u2 = math.sin(theta)
        if trunc is None:
            mass = special.chdtrc(p, thresh(u2)) if tail else 1.0
        else:
            ev = _event(u2, q_r, trunc)
            lo, hi = (0.0, 0.0) if ev is None else ev
            lo = max(lo, thresh(u2)) if tail else lo
            mass = max(special.chdtr(p, hi) - special.chdtr(p, lo), 0.0) if hi > lo else 0.0
        return math.cos(theta) ** (p - 2) * mass

    w = math.sqrt(t / q_r)
    points = [0.0] + [s * w * 10.0**k for k in range(-1, 16) for s in (-1.0, 1.0)]
    if trunc is not None:
        points += sum(_kinks(t, q_r, trunc), [])
    edges = sorted({-math.pi / 2, math.pi / 2} | {math.asin(u) for u in points if abs(u) < 1.0})
    num, den = (
        sum(
            integrate.quad(part, a, b, args=(tail,), limit=200, epsabs=1e-15, epsrel=1e-13)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        for tail in (True, False)
    )
    return (num / den if den > 0.0 else math.nan), k4_constant(p) * den


@st.composite
def _tail_laws(draw):
    """(t, q_R, p, trunc): t in [1e-14, 20], q_R in [0.1, 1e4]; naive, or
    truncated with d1 = +-2 sqrt(d0 d2) as from a covariance and lambda^2
    set so that thresh meets an end of the event within five notch widths
    of u2 = 0."""
    p = draw(st.sampled_from([2, 3, 4, 10]))
    t = 10.0 ** draw(st.floats(-14.0, math.log10(20.0)))
    q_r = 10.0 ** draw(st.floats(-1.0, 4.0))
    if draw(st.booleans()):
        return t, q_r, p, None
    d0, d2 = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
    d1 = draw(st.sampled_from([-2.0, 2.0])) * math.sqrt(d0 * d2)
    u2 = min(max(draw(st.floats(-5.0, 5.0)) * math.sqrt(t / q_r), -1.0), 1.0)
    x = math.sqrt((q_r + t) / (1.0 + q_r * u2 * u2 / t))
    # ||S||^2 at (x, u2), as a sum of squares
    root_d2 = math.copysign(math.sqrt(d2), d1)
    lam = (math.sqrt(d0) * x + root_d2 * u2 * math.sqrt(q_r)) ** 2 + d2 * q_r * (1.0 - u2 * u2)
    return t, q_r, p, ClrTruncation(d0=d0, d1=d1, d2=d2, lambda_sq=lam, q_R=q_r, p=p)


# the truncated law at beta0 = 1 of the clr-fail-large-n bench input at
# seed 9 (tail 0.859357986085), whose kinks next to the notch misled a
# Simpson error estimate
_SEED9 = ClrTruncation(d0=0.63332, d1=0.95457, d2=0.35970, lambda_sq=99.301, q_R=240.63, p=10)


# the first three are small LR, where a uniform grid never resolved the
# notch (tails 0.99999399655, 0.99999927852 and 0.99992249583)
@given(_tail_laws())
@example((6e-11, 160.0, 10, None))
@example((1e-12, 50.0, 10, None))
@example((1e-8, 160.0, 10, None))
@example((0.015452, 240.63, 10, _SEED9))
def test_tails_match_split_quad_oracle(law):
    t, q_r, p, trunc = law
    ref, mass = _quad_tail(t, q_r, p, trunc)
    assume(mass > 1e-9)
    tail = clr_tails([t], [q_r], p, trunc)
    assert not tail.underflow[0]
    assert tail.tail[0] == pytest.approx(ref, abs=1e-9)


def _monte_carlo_tail(omega, beta0, lam_sq, t, q_r, p, draws=1_000_000, seed=0):
    """P(LR >= t | Q_R = q_r, ||S||^2 <= lam_sq) from draws of the data:
    R = sqrt(q_r) e1 and U ~ N(0, I_p) mapped back to the whitened
    (Z'Y, Z'D) by the inverse of clr_components' 2x2 map at beta0, with
    the draws that fail the screen kept.  Returns the tail, its binomial
    SE and the kept count."""
    (o00, o01), (_, o11) = omega
    det = o00 * o11 - o01**2
    b_root = math.sqrt(o00 - 2.0 * beta0 * o01 + beta0**2 * o11)
    a_root = b_root / math.sqrt(det)
    # [U R] = [Z'Y Z'D] @ to_ur, both whitened
    to_ur = np.array([
        [1.0 / b_root, (o11 * beta0 - o01) / det / a_root],
        [-beta0 / b_root, (o00 - o01 * beta0) / det / a_root],
    ])
    back = np.linalg.inv(to_ur)
    u = np.random.default_rng(seed).standard_normal((draws, p))
    s = u * back[0, 1]
    s[:, 0] += math.sqrt(q_r) * back[1, 1]
    kept = u[np.einsum("ij,ij->i", s, s) <= lam_sq]
    lr = clr_statistic_from_q(np.einsum("ij,ij->i", kept, kept), kept[:, 0] * math.sqrt(q_r), q_r)
    tail = float(np.mean(lr >= t))
    return tail, math.sqrt(tail * (1.0 - tail) / len(kept)), len(kept)


@pytest.mark.parametrize(
    "seed, c0, beta0, crossing",
    [(0, 2.5, 1.0, False), (4, 3.0, 1.0, True)],
    ids=["no-crossing", "crossing"],
)
def test_truncated_tail_matches_data_level_monte_carlo(seed, c0, beta0, crossing):
    data = _weak_data(seed=seed)
    assert f_statistic(data) < c0
    lr, q_r, trunc = _weak_laws(data, [beta0], c0)
    one = _law(trunc, 0, 1)
    assert bool(_kinks(lr[0], q_r[0], one)[1]) == crossing
    mc, se, kept = _monte_carlo_tail(
        data.moments.omega, beta0, float(trunc.lambda_sq), lr[0], q_r[0], data.p
    )
    tail = clr_tail(lr[0], q_r[0], data.p, one)
    assert kept > 10_000 and abs(tail - clr_tail(lr[0], q_r[0], data.p)) > 10 * se
    assert abs(tail - mc) < 4.0 * se


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
    # refuses the null off the scan's first pass, which beta0 leads: no
    # further pass and no naive curve is read; at 2.0, further out, the
    # event has mass again and the branch answers
    laws = []
    real = ivselect.clr.clr_law

    def spy(data, nulls, lam_sq=None):
        laws.append((np.array(nulls), lam_sq is None))
        return real(data, nulls, lam_sq)

    monkeypatch.setattr(ivselect.clr, "clr_law", spy)
    data = generate(dgp_from_r(0.3, 0.99, n=200, p=2, seed=1))
    with pytest.raises(TruncationError, match="conditioning event has mass < 1e-12"):
        clr_conditional_inference(data, 1.6, c0=10.0)
    assert len(laws) == 1
    (nulls, naive), = laws
    assert nulls[0] == 1.6 and nulls.size > 1 and not naive
    laws.clear()
    report = clr_conditional_inference(data, 2.0, c0=10.0)
    naive = [naive for _, naive in laws]
    assert naive == sorted(naive) and naive.count(True) >= 2 and naive.count(False) >= 2
    assert laws[0][0][0] == 2.0 and laws[naive.index(True)][0][0] == 2.0
    assert 0.0 <= report.conditional_pvalue <= 1.0


def test_naive_tails_of_one_block_peak_below_20mb():
    # 8 segments * 512 panels * 96 nodes = 393216 nodes, one block: the
    # nodes, weights and thresholds and the chi2 tails' two outputs, 3.1 MB
    # each; the chi2 sums' temporaries do not grow with the node count
    clr_tails([1.0], [1.0], 2, None, QuadratureConfig(panels=512))
    tracemalloc.start()
    got = clr_tails([1.0], [1.0], 2, None, QuadratureConfig(panels=512))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got.nodes[0] == 393216
    assert peak < 20e6


def _assert_truncations_match(trunc, singles, t, q_r, p):
    for name in _COEFS:
        ref = np.array([getattr(one, name) for one in singles])
        np.testing.assert_array_equal(np.broadcast_to(getattr(trunc, name), ref.shape), ref)
    got = clr_tails(t, q_r, p, trunc)
    assert not got.underflow.any()
    np.testing.assert_array_equal(got.tail, [clr_tail(*law, p, one) for *law, one in zip(t, q_r, singles)])


def test_batched_truncation_equals_per_null_builds():
    # an array of nulls on one dataset
    data = _weak_data(seed=3)
    nulls = np.linspace(-2.0, 3.0, 11)
    lr, q_r, trunc = _weak_laws(data, nulls)
    lam2 = penalty_lambda(data, 10.0) ** 2
    singles = [truncation_from_estimates(data.moments.omega, b, lam2, q, data.p) for b, q in zip(nulls, q_r)]
    _assert_truncations_match(trunc, singles, lr, q_r, data.p)
    # a batch of replications at one null, each with its own covariance
    rng = _generator(4, 1)
    mom = Moments.of(*_draw_batch(dgp_from_r(0.05, 0.6, n=300, p=4, seed=4), 12, rng))
    comps = clr_components(mom, 1.0)
    lam2 = penalty_lambda(mom, 10.0) ** 2
    trunc = truncation_from_estimates(mom.omega, 1.0, lam2, comps.q_r, mom.p)
    singles = [
        truncation_from_estimates(mom.omega[i], 1.0, float(lam2[i]), comps.q_r[i], mom.p)
        for i in range(12)
    ]
    lr = clr_statistic_from_q(comps.q_u, comps.q_ur, comps.q_r)
    _assert_truncations_match(trunc, singles, lr, comps.q_r, mom.p)
