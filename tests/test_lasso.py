"""Randomized-Lasso selection, its KKT event, and post-selection inference."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special, stats
from scipy.integrate import cumulative_trapezoid

import ivselect.lasso
from ivselect import (
    DGPConfig,
    IVDataset,
    LassoLaw,
    LassoSelection,
    Moments,
    RandomizationLaw,
    SamplerConfig,
    build_law_lasso,
    build_law_tsls,
    covariance_estimates,
    default_lasso_penalty,
    default_lasso_scale,
    default_scale,
    dgp_from_r,
    generate,
    lasso_conditional_inference,
    prepare,
    run_pretest,
    solve_randomized_lasso,
    tsls_estimate,
)
from ivselect.errors import BranchError, CovarianceError
from ivselect.lasso import _dual_gap, _pooled_lasso_pvalues
from ivselect.sampler import _pooled_pvalues, sobol_sets


def _soft(x, tau):
    return math.copysign(max(abs(x) - tau, 0.0), x)


def _orthonormal_instance(seed, n=80, p=4):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, p))
    g -= g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    gamma = rng.uniform(-1.5, 1.5, p)
    d = q @ gamma + 0.3 * rng.standard_normal(n)
    y = 0.5 * d + 0.3 * rng.standard_normal(n)
    return IVDataset(Y=y, D=d, Z=q)


def _random_instance(rng):
    n = int(rng.integers(50, 120))
    p = int(rng.integers(1, 7))
    mix = rng.standard_normal((n, p)) + 0.4 * rng.standard_normal((n, 1))
    gamma = rng.uniform(-1.0, 1.0, p)
    d = mix @ gamma + rng.standard_normal(n)
    y = d * rng.uniform(-1.0, 1.0) + rng.standard_normal(n)
    return IVDataset(Y=y, D=d, Z=mix)


def _objective(rows, lam, omega, gamma):
    resid = rows.D - rows.Z @ gamma
    return (
        0.5 * float(resid @ resid)
        + lam * float(np.abs(gamma).sum())
        - float(omega @ gamma)
    )


def test_orthonormal_design_soft_threshold(prepared_rows):
    raw = _orthonormal_instance(seed=0)
    data, rows = prepare(raw), prepared_rows(raw)
    law = RandomizationLaw(scale=0.8, seed=5)
    omega = law.draw(data.p)
    rho = rows.Z.T @ rows.D + omega
    lam = 0.6 * float(np.max(np.abs(rho)))
    sel = solve_randomized_lasso(data, lam, law)
    expected = np.array([_soft(r, lam) for r in rho])
    np.testing.assert_allclose(sel.gamma_l, expected, atol=1e-8)
    assert sel.support_E == tuple(np.nonzero(expected)[0])
    assert 1 <= len(sel.support_E) < data.p


def test_full_shrinkage_gives_empty_support(prepared_rows):
    raw = _orthonormal_instance(seed=1)
    data, rows = prepare(raw), prepared_rows(raw)
    law = RandomizationLaw(scale=0.8, seed=6)
    omega = law.draw(data.p)
    lam = 1.01 * float(np.max(np.abs(rows.Z.T @ rows.D + omega)))
    sel = solve_randomized_lasso(data, lam, law)
    assert sel.support_E == ()
    assert np.all(sel.gamma_l == 0.0)
    assert np.all(np.abs(sel.subgradient_u) <= 1.0)
    with pytest.raises(BranchError, match="empty support"):
        build_law_lasso(data, 0.5, sel, covariance_estimates(data, 0.5))
    with pytest.raises(BranchError, match="empty support"):
        lasso_conditional_inference(data, 0.5, sel)


def test_unpenalized_limit_recovers_least_squares():
    data = generate(dgp_from_r(0.6, 0.5, n=120, p=3, seed=40))
    sel = solve_randomized_lasso(data, 1e-6, RandomizationLaw(scale=1e-300, seed=7))
    np.testing.assert_allclose(sel.gamma_l, data.moments.gamma_hat, atol=1e-7)
    assert sel.support_E == tuple(range(data.p))


def test_kkt_residual_small_on_random_instances(prepared_rows):
    rng = np.random.default_rng(41)
    for k in range(50):
        raw = _random_instance(rng)
        data, rows = prepare(raw), prepared_rows(raw)
        law = RandomizationLaw(scale=float(rng.uniform(0.2, 3.0)), seed=700 + k)
        omega = law.draw(data.p)
        lam = float(rng.uniform(0.2, 1.2)) * float(np.max(np.abs(rows.Z.T @ rows.D + omega)))
        sel = solve_randomized_lasso(data, lam, law)
        resid = rows.D - rows.Z @ sel.gamma_l
        kkt = -rows.Z.T @ resid + lam * sel.subgradient_u - sel.omega
        assert float(np.max(np.abs(kkt))) < 1e-6
        off = sel.off_support
        assert np.all(sel.gamma_l[off] == 0.0)
        assert np.all(np.abs(sel.subgradient_u[off]) <= 1.0)


def test_matches_proximal_gradient_solver(prepared_rows):
    # independent oracle: proximal gradient on the same objective,
    # run to a fixed point (the problem is strongly convex, so the
    # iteration contracts geometrically)
    rng = np.random.default_rng(42)
    for k in range(20):
        raw = _random_instance(rng)
        data, rows = prepare(raw), prepared_rows(raw)
        law = RandomizationLaw(scale=float(rng.uniform(0.3, 2.0)), seed=900 + k)
        omega = law.draw(data.p)
        lam = 0.4 * float(np.max(np.abs(rows.Z.T @ rows.D + omega)))
        sel = solve_randomized_lasso(data, lam, law)

        step = 1.0 / float(np.linalg.eigvalsh(rows.Z.T @ rows.Z)[-1])
        gamma = np.zeros(data.p)
        for _ in range(200000):
            grad = -rows.Z.T @ (rows.D - rows.Z @ gamma) - omega
            new = gamma - step * grad
            new = np.sign(new) * np.maximum(np.abs(new) - step * lam, 0.0)
            if float(np.max(np.abs(new - gamma))) < 1e-14:
                gamma = new
                break
            gamma = new
        obj_cd = _objective(rows, lam, omega, sel.gamma_l)
        obj_pg = _objective(rows, lam, omega, gamma)
        assert abs(obj_cd - obj_pg) < 1e-8
        np.testing.assert_allclose(sel.gamma_l, gamma, atol=1e-6)


def _row_dual_gap(z, d, omega, lam, gamma):
    """The duality gap from the rows, with the per-coordinate s-interval
    loop: the reference for lasso._dual_gap's moment form."""
    resid = d - z @ gamma
    primal = 0.5 * float(resid @ resid) + lam * float(np.abs(gamma).sum()) - float(omega @ gamma)
    zr = z.T @ resid
    wide = lam + 1e-12 * (lam + float(np.abs(omega).max()) + float(np.abs(zr).max()))
    s_lo, s_hi = -math.inf, math.inf
    for zr_j, om_j in zip(zr, omega):
        if zr_j != 0:
            lo, hi = sorted(((-wide - om_j) / zr_j, (wide - om_j) / zr_j))
            s_lo, s_hi = max(s_lo, lo), min(s_hi, hi)
        elif abs(om_j) > wide:
            return math.inf
    if s_lo > s_hi:
        return math.inf
    theta = min(max(1.0, s_lo), s_hi) * resid
    return primal - (float(theta @ d) - 0.5 * float(theta @ theta))


def test_moment_duality_gap_matches_row_form(prepared_rows):
    # at points on the segment from zero to the solution, relative to D'D
    rng = np.random.default_rng(43)
    for k in range(30):
        raw = _random_instance(rng)
        m, rows = prepare(raw), prepared_rows(raw)
        law = RandomizationLaw(scale=float(rng.uniform(0.3, 2.0)), seed=950 + k)
        lam = float(rng.uniform(0.2, 1.2)) * float(np.max(np.abs(rows.Z.T @ rows.D + law.draw(m.p))))
        sel = solve_randomized_lasso(m, lam, law)
        for t in (0.0, 0.5, 0.9, 1.0):
            gamma = t * sel.gamma_l
            want = _row_dual_gap(rows.Z, rows.D, sel.omega, lam, gamma)
            got = _dual_gap(m, sel.omega, lam, gamma, m.ztd - m.ztz @ gamma)
            assert abs(got - want) <= 1e-12 * float(m.dd)


@pytest.mark.parametrize("column, s", [
    *(pytest.param("D", s, id=str(s)) for s in (1e-3, 1e3, 1e4, 1e6)),
    *(pytest.param("Z", s, id=f"Z-{s}") for s in (1e-3, 1e3, 1e6)),
])
def test_selection_equivariant_under_treatment_units(column, s):
    # D -> sD scales the penalty, the randomization and gamma by s, and
    # Z -> sZ scales the penalty and the randomization by s and gamma by
    # 1/s; both keep the selection event: the stopping gap is relative to D'D
    gamma = np.zeros(10)
    gamma[:3] = 0.15
    data = generate(DGPConfig(n=1000, p=10, beta_star=1.0, gamma_star=gamma,
                              sigma_star=np.array([[1.0, 0.8], [0.8, 1.0]]), seed=4))

    def select(d):
        law = RandomizationLaw(scale=default_lasso_scale(d), seed=2)
        return solve_randomized_lasso(d, default_lasso_penalty(d, seed=1), law)

    base = select(data)
    if column == "D":
        scaled = select(prepare(IVDataset(Y=data.Y, D=s * data.D, Z=data.Z)))
        gamma_back = scaled.gamma_l / s
    else:
        scaled = select(prepare(IVDataset(Y=data.Y, D=data.D, Z=s * data.Z)))
        gamma_back = scaled.gamma_l * s
    assert scaled.support_E == base.support_E
    np.testing.assert_array_equal(scaled.signs_sE, base.signs_sE)
    np.testing.assert_allclose(gamma_back, base.gamma_l, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(scaled.subgradient_u, base.subgradient_u, rtol=0, atol=1e-12)


def test_selection_reads_its_event_off_gamma():
    sel = LassoSelection(
        lambda_l=1.0, omega=np.zeros(3), gamma_l=np.array([0.0, -0.4, 0.2]),
        subgradient_u=np.array([0.3, -1.0, 1.0]),
    )
    assert sel.support_E == (1, 2)
    np.testing.assert_array_equal(sel.signs_sE, [-1.0, 1.0])
    np.testing.assert_array_equal(sel.off_support, [0])
    empty = LassoSelection(lambda_l=1.0, omega=np.zeros(2), gamma_l=np.zeros(2), subgradient_u=np.array([0.5, -0.2]))
    assert empty.support_E == () and empty.signs_sE.shape == (0,)
    np.testing.assert_array_equal(empty.off_support, [0, 1])


def test_selection_event_validation():
    with pytest.raises(ValueError, match="signs"):
        LassoSelection(
            lambda_l=1.0, omega=np.zeros(2), gamma_l=np.array([-0.5, 0.0]),
            subgradient_u=np.array([1.0, 0.3]),
        )
    with pytest.raises(ValueError, match="unit box"):
        LassoSelection(
            lambda_l=1.0, omega=np.zeros(2), gamma_l=np.array([0.5, 0.0]),
            subgradient_u=np.array([1.0, 1.5]),
        )
    with pytest.raises(ValueError, match="positive"):
        LassoSelection(
            lambda_l=0.0, omega=np.zeros(1), gamma_l=np.zeros(1), subgradient_u=np.zeros(1),
        )


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_non_positive_penalty_is_refused_at_entry(lam, monkeypatch):
    # a nan penalty used to run every coordinate-descent sweep before the
    # solver gave up on its duality gap; no sweep may run, so no gap is read
    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(ivselect.lasso, "_dual_gap", no_sweep)
    message = f"lambda_l = {lam}: the penalty must be finite and positive"
    with pytest.raises(ValueError, match=message):
        solve_randomized_lasso(_orthonormal_instance(seed=0), lam, RandomizationLaw(scale=0.8, seed=5))
    with pytest.raises(ValueError, match=message):
        LassoSelection(lambda_l=lam, omega=np.zeros(1), gamma_l=np.zeros(1), subgradient_u=np.zeros(1))


def _partial_selection(seed):
    """An instance whose selection keeps some instruments and drops others."""
    config = DGPConfig(
        n=200, p=4, beta_star=1.0,
        gamma_star=np.array([0.9, 0.6, 0.05, 0.0]),
        sigma_star=np.array([[1.0, 0.5], [0.5, 1.0]]),
        seed=seed,
    )
    data = generate(config)
    law = RandomizationLaw(scale=default_lasso_scale(data), seed=seed + 1)
    lam = default_lasso_penalty(data, seed=seed + 2)
    sel = solve_randomized_lasso(data, lam, law)
    assert 1 <= len(sel.support_E) < data.p
    return data, sel


def test_lasso_refuses_a_null_that_overflows_sigma():
    # at 1e200 |B_Y - beta0 B_D|^2 overflows, where the p-value read 1.0;
    # a negative randomization seed selects as its seed + 2^63 does
    data, sel = _partial_selection(seed=63)
    law = RandomizationLaw(scale=default_lasso_scale(data), seed=64 - 2**63)
    wrapped = solve_randomized_lasso(data, sel.lambda_l, law)
    assert wrapped.omega.tobytes() == sel.omega.tobytes()
    assert wrapped.gamma_l.tobytes() == sel.gamma_l.tobytes()
    assert lasso_conditional_inference(data, 1e152, sel).conditional_pvalue < 1e-15
    with pytest.raises(CovarianceError, match=r"overflows at the null beta0 = 1e\+200$"):
        lasso_conditional_inference(data, 1e200, sel)


def _far_orthant_law():
    # p = 1, gamma selected positive while the randomization puts its
    # conditional mean about 32 sd below zero (T settles near -16)
    return LassoLaw(
        cols=np.array([[0.5, 1.0]]), base=np.array([40.0]),
        lower=np.array([-np.inf, 0.0]), upper=np.array([np.inf, np.inf]),
        gaussian_scale=1.0, t_obs=0.0,
    )


def test_selection_and_inference_read_only_moments():
    # the penalty, the solver and the inference take a bare Moments, or
    # one replication of a batch, and give exactly what the dataset gives
    data, _ = _partial_selection(seed=50)
    other, _ = _partial_selection(seed=63)
    names = ("chol", "s", "sy", "b")
    batch = Moments(data.n, *(np.stack([getattr(d.moments, k) for d in (other, data)]) for k in names))

    def run(src):
        lam = default_lasso_penalty(src, seed=52)
        sel = solve_randomized_lasso(src, lam, RandomizationLaw(scale=default_lasso_scale(src), seed=51))
        return sel, lasso_conditional_inference(src, 1.0, sel).to_dict()

    want_sel, want_rep = run(data)
    assert want_sel.support_E and want_rep["diagnostics"]["qmc_points"] == 1024
    for src in (Moments(data.n, *(getattr(data.moments, k) for k in names)), batch[1]):
        sel, rep = run(src)
        for f in fields(LassoSelection):
            np.testing.assert_array_equal(getattr(sel, f.name), getattr(want_sel, f.name), err_msg=f.name)
        assert rep == want_rep


def test_gaussian_penalty_matches_row_draws_in_law(prepared_rows):
    # each draw of the penalty is sigma_hat ||L xi||_inf with LL' = Z'Z;
    # the reference draws rows e ~ N(0, sigma_hat^2 I) on the fixed,
    # correlated and unevenly scaled Z, and takes 1.1 times the median of
    # 200 values of ||Z'e||_inf, the penalty's own rule
    rng = np.random.default_rng(70)
    n, p = 60, 6
    z = (rng.standard_normal((n, p)) + 0.7 * rng.standard_normal((n, 1))) * np.linspace(0.3, 3.0, p)
    d = z @ np.full(p, 0.2) + rng.standard_normal(n)
    raw = IVDataset(Y=d + rng.standard_normal(n), D=d, Z=z)
    data, rows = prepare(raw), prepared_rows(raw)
    resid = rows.D - rows.Z @ np.linalg.lstsq(rows.Z, rows.D, rcond=None)[0]
    sigma = math.sqrt(float(resid @ resid) / (n - p))
    reference = [
        1.1 * np.median(np.abs(sigma * rng.standard_normal((200, n)) @ rows.Z).max(axis=1))
        for _ in range(300)
    ]
    penalties = [default_lasso_penalty(data, seed=k) for k in range(300)]
    assert stats.ks_2samp(penalties, reference).pvalue > 1e-3


def _single_instrument_law():
    data = generate(dgp_from_r(0.8, 0.6, n=150, p=1, seed=52))
    law_omega = RandomizationLaw(scale=default_lasso_scale(data), seed=53)
    lam = default_lasso_penalty(data, seed=54)
    sel = solve_randomized_lasso(data, lam, law_omega)
    assert sel.support_E == (0,)
    return build_law_lasso(data, 1.0, sel, covariance_estimates(data, 1.0))


def _single_instrument_cdf(law, ts):
    # p = 1 with the instrument selected: integrating gamma over its
    # sign half-line out of phi(t) g(a t + z gamma + b) leaves
    # phi(t) * Phi(-s (a t + b) / c), taken in logs so that a far
    # orthant keeps its mass
    a, b, c = float(law.cols[0, 0]), float(law.base[0]), law.gaussian_scale
    s = 1.0 if law.lower[1] == 0.0 else -1.0
    log_pdf = stats.norm.logpdf(ts) + special.log_ndtr(-s * (a * ts + b) / c)
    cdf = cumulative_trapezoid(np.exp(log_pdf - log_pdf.max()), ts, initial=0.0)
    return cdf / cdf[-1]


@pytest.mark.parametrize("make_law", [_single_instrument_law, _far_orthant_law])
def test_qmc_tails_match_single_instrument_closed_form(make_law):
    law = make_law()
    ts = np.linspace(-40.0, 40.0, 160001)
    cdf = _single_instrument_cdf(law, ts)
    # the law's central quantiles, where both tails carry mass
    t_eval = np.interp([0.05, 0.3, 0.5, 0.7, 0.95], cdf, ts)
    upper, two = _pooled_lasso_pvalues(replace(law, t_obs=t_eval), sobol_sets(SamplerConfig(), 1, [0])[0])
    want = 1.0 - np.interp(t_eval, ts, cdf)
    np.testing.assert_allclose(upper, want, rtol=0, atol=1e-3)
    np.testing.assert_allclose(two, np.minimum(1.0, 2.0 * np.minimum(want, 1.0 - want)), rtol=0, atol=1e-3)


def _nquad_upper_tail(law):
    """P(T >= t_obs) by adaptive quadrature over r = (gamma_E, u_{-E}) in
    its box, infinite sides cut 6 units out.  For fixed r the exponent
    -T^2/2 - |a T + v|^2 / 2c^2, v = C_r r + base, is a quadratic in T,
    so T's integral is a normal tail."""
    cols, base, c2 = law.cols, law.base, law.gaussian_scale**2
    a = cols[:, 0]
    prec = 1.0 + float(a @ a) / c2

    def t_integral(r, tail):
        v = cols[:, 1:] @ np.asarray(r) + base
        mean = -float(a @ v) / (c2 * prec)
        weight = math.exp(-0.5 * float(v @ v) / c2 + 0.5 * prec * mean * mean)
        return weight * (special.ndtr((mean - law.t_obs) * math.sqrt(prec)) if tail else 1.0)

    ranges = [(max(lo, -6.0), min(hi, 6.0)) for lo, hi in zip(law.lower[1:], law.upper[1:])]
    opts = {"epsabs": 1e-10, "epsrel": 1e-8}
    num = integrate.nquad(lambda *r: t_integral(r, True), ranges, opts=opts)[0]
    den = integrate.nquad(lambda *r: t_integral(r, False), ranges, opts=opts)[0]
    return num / den


@pytest.mark.parametrize("law", [
    # p = 2: gamma_0 >= 0 cuts about a fifth of its mass, the box on u_1 more
    LassoLaw(
        cols=np.array([[-0.6, 2.0, 0.0], [-0.3, 0.8, 1.5]]), base=np.array([-1.0, 0.4]),
        lower=np.array([-np.inf, 0.0, -1.0]), upper=np.array([np.inf, np.inf, 1.0]),
        gaussian_scale=1.0, t_obs=0.7,
    ),
    # p = 3: gamma_0 >= 0, gamma_2 <= 0 and the box on u_1
    LassoLaw(
        cols=np.array([[-0.6, 2.0, 0.5, 0.0], [-0.3, 0.8, 0.3, 1.2], [0.4, 0.5, 1.8, 0.0]]),
        base=np.array([-1.0, 0.4, 0.6]),
        lower=np.array([-np.inf, 0.0, -np.inf, -1.0]), upper=np.array([np.inf, np.inf, 0.0, 1.0]),
        gaussian_scale=1.0, t_obs=-0.4,
    ),
], ids=["p2", "p3"])
def test_qmc_tail_matches_adaptive_quadrature(law):
    want = _nquad_upper_tail(law)
    upper, two = _pooled_lasso_pvalues(law, sobol_sets(SamplerConfig(n_samples=4096), law.cols.shape[0], [0])[0])
    assert abs(float(upper) - want) < 1e-4
    assert abs(float(two) - min(1.0, 2.0 * min(want, 1.0 - want))) < 2e-4


def test_qmc_tails_match_exact_rejection_draws_at_p10():
    # a bench-like selection: p = 10, three weak instruments.  The
    # reference draws (T, r) i.i.d. from the untruncated Gaussian of
    # precision Q = e0 e0' + cols'cols / c^2 and mean -Q^-1 cols'base / c^2,
    # and keeps the draws whose r lands in the box: exact draws of the
    # law, about two in three kept.  The QMC tails at 256 points must sit
    # within four standard errors of the difference (reference: binomial;
    # QMC: spread over 8 scrambles)
    gamma = np.zeros(10)
    gamma[:3] = 0.15
    data = generate(DGPConfig(n=1000, p=10, beta_star=1.0, gamma_star=gamma,
                              sigma_star=np.array([[1.0, 0.8], [0.8, 1.0]]), seed=4))
    law_omega = RandomizationLaw(scale=default_lasso_scale(data), seed=2)
    sel = solve_randomized_lasso(data, default_lasso_penalty(data, seed=1), law_omega)
    assert 1 <= len(sel.support_E) < data.p
    law = build_law_lasso(data, 1.0, sel, covariance_estimates(data, 1.0))
    ts = law.t_obs + np.array([-1.0, 0.0, 1.0])

    c2 = law.gaussian_scale**2
    prec = law.cols.T @ law.cols / c2
    prec[0, 0] += 1.0
    cov = np.linalg.inv(prec)
    mean = -cov @ law.cols.T @ law.base / c2
    root = np.linalg.cholesky(cov)
    rng = np.random.default_rng(3)
    kept, hits = 0, np.zeros(ts.size)
    for _ in range(10):
        theta = mean + rng.standard_normal((100_000, mean.size)) @ root.T
        inside = np.all((law.lower[1:] <= theta[:, 1:]) & (theta[:, 1:] <= law.upper[1:]), axis=1)
        kept += int(inside.sum())
        hits += (theta[inside, :1] >= ts).sum(axis=0)
    assert kept > 300_000
    exact = hits / kept
    exact_se = np.sqrt(exact * (1.0 - exact) / kept)

    cfg = SamplerConfig(n_samples=256, seed=5)
    scrambles = np.array([
        _pooled_lasso_pvalues(replace(law, t_obs=ts), sobol_sets(cfg, data.p, [k])[0])[0] for k in range(8)
    ])
    qmc, qmc_se = scrambles[0], scrambles.std(axis=0, ddof=1)
    assert np.all(np.abs(qmc - exact) < 4.0 * np.sqrt(exact_se**2 + qmc_se**2))


def test_vanishing_randomization_matches_f_branch():
    # with small omega and a small penalty every instrument survives
    # selection almost surely, both conditioning events become vacuous,
    # and the two branches' p-values meet near the naive one.  The
    # bound is on the mean gap over three datasets.
    diffs = []
    for seed in (60, 61, 62):
        data = generate(dgp_from_r(0.8, 0.5, n=300, p=3, beta_star=1.0, seed=seed))
        cfg = SamplerConfig(n_samples=12000, burn_in=2000, chains=6, seed=seed)
        est = covariance_estimates(data, 1.0)

        lam = 0.2 * default_lasso_penalty(data, seed=seed + 1)
        law_omega = RandomizationLaw(scale=0.35 * default_lasso_scale(data), seed=seed + 2)
        sel = solve_randomized_lasso(data, lam, law_omega)
        assert sel.support_E == tuple(range(data.p))
        law_l = build_law_lasso(data, 1.0, sel, est)
        _, two_l = _pooled_lasso_pvalues(law_l, sobol_sets(cfg, data.p, [0])[0])

        pretest = run_pretest(data, c0=10.0, seed=seed + 3, scale=0.35 * default_scale(data))
        assert pretest.passed
        law_f = build_law_tsls(data, 1.0, pretest, est)
        two_f = _pooled_pvalues(law_f).two_sided
        diffs.append(abs(float(two_l) - float(two_f)))
    assert float(np.mean(diffs)) < 0.05


def test_conditional_inference_report_contents():
    data, sel = _partial_selection(seed=63)
    cfg = SamplerConfig(n_samples=2000, burn_in=500, chains=2, seed=64)
    report = lasso_conditional_inference(data, 1.0, sel, config=cfg)
    assert report.diagnostics["branch"] == "lasso"
    assert report.diagnostics["support"] == list(sel.support_E)
    assert 0.0 <= report.conditional_pvalue <= 1.0
    assert report.diagnostics["qmc_points"] == 2048
    assert 0.0 < report.diagnostics["qmc_se"] < 0.01
    sub = prepare(IVDataset(Y=data.Y, D=data.D, Z=data.Z[:, list(sel.support_E)]))
    assert report.conditional_ci.contains(tsls_estimate(sub))
    assert report.naive_ci.contains(tsls_estimate(sub))


def test_batched_lasso_law_equals_per_null_builds():
    # one builder call over an array of nulls gives, field by field, the
    # laws of one call per null
    data, sel = _partial_selection(seed=65)
    nulls = np.linspace(-1.0, 3.0, 7)
    batch = build_law_lasso(data, nulls, sel, covariance_estimates(data, nulls))
    singles = [build_law_lasso(data, b, sel, covariance_estimates(data, b)) for b in nulls]
    stacked = LassoLaw(**{f.name: np.stack([getattr(w, f.name) for w in singles]) for f in fields(LassoLaw)})
    q = 1 + data.p
    assert batch.cols.shape == (7, data.p, q)
    for f in fields(LassoLaw):
        np.testing.assert_array_equal(
            np.broadcast_to(getattr(batch, f.name), getattr(stacked, f.name).shape),
            getattr(stacked, f.name),
            err_msg=f.name,
        )
    assert singles[0].cols.shape == (data.p, q) and np.ndim(singles[0].t_obs) == 0
    # the loops the builder's index assignments replaced, as their reference
    n_e = len(sel.support_E)
    lam_block = np.zeros((data.p, data.p - n_e))
    for k, j in enumerate(sel.off_support):
        lam_block[j, k] = sel.lambda_l
    np.testing.assert_array_equal(batch.cols[..., 1 + n_e:], np.broadcast_to(lam_block, (7,) + lam_block.shape))
    for k, s in enumerate(sel.signs_sE):
        want = (0.0, np.inf) if s > 0 else (-np.inf, 0.0)
        assert (batch.lower[1 + k], batch.upper[1 + k]) == want
    # a law's p-values do not depend on the laws beside it: alone, inside
    # its batch, and stacked with the laws of another selection, whose
    # bounds then carry the law axis.  At 4096 points the engine takes 4
    # laws at a time, so both stacks cross its chunk boundaries.
    points = sobol_sets(SamplerConfig(n_samples=4096, seed=66), data.p, [0])[0]
    data_b, sel_b = _partial_selection(seed=50)
    others = build_law_lasso(data_b, nulls, sel_b, covariance_estimates(data_b, nulls))
    mixed = LassoLaw(**{
        f.name: np.concatenate([
            np.broadcast_to(getattr(w, f.name), np.shape(w.t_obs) + np.shape(getattr(singles[0], f.name)))
            for w in (others, batch)
        ])
        for f in fields(LassoLaw)
    })
    assert mixed.lower.shape == (14, q)
    alone = [_pooled_lasso_pvalues(w, points) for w in singles]
    in_batch = _pooled_lasso_pvalues(batch, points)
    in_mixed = _pooled_lasso_pvalues(mixed, points)
    for k in range(2):
        want = np.array([a[k] for a in alone])
        assert in_batch[k].shape == (7,)
        np.testing.assert_array_equal(in_batch[k], want)
        np.testing.assert_array_equal(in_mixed[k][7:], want)


@given(seed=st.integers(-(2**63), 2**63 - 1), beta0=st.floats(-1.0, 3.0))
def test_lasso_inference_reproduces_from_its_seed(seed, beta0):
    data, sel = _partial_selection(seed=67)
    cfg = SamplerConfig(n_samples=64, seed=seed)
    first = lasso_conditional_inference(data, beta0, sel, config=cfg).to_dict()
    again = lasso_conditional_inference(data, beta0, sel, config=cfg).to_dict()
    assert first == again
    other = lasso_conditional_inference(data, beta0, sel, config=replace(cfg, seed=seed ^ 1)).to_dict()
    assert other["conditional_pvalue"] != first["conditional_pvalue"]


def test_reported_pvalue_is_the_curve_at_beta0():
    data, sel = _partial_selection(seed=63)
    cfg = SamplerConfig(n_samples=500, seed=64)
    report = lasso_conditional_inference(data, 1.0, sel, config=cfg)
    nulls = np.array([0.5, 1.0, 1.5])
    law = build_law_lasso(data, nulls, sel, covariance_estimates(data, nulls))
    curve = _pooled_lasso_pvalues(law, sobol_sets(cfg, data.p, [0])[0])[1]
    assert report.conditional_pvalue == curve[1]


def test_lasso_inference_makes_three_engine_calls(monkeypatch):
    # a bounded answer: beta0 leads the scan's coarse pass, one fine pass
    # places the ends, and the 7 other scrambles at beta0 run as one batch
    # of 7 laws, each over its own point set
    data, sel = _partial_selection(seed=63)
    cfg = SamplerConfig(n_samples=500, seed=64)
    shapes = []
    real = ivselect.lasso._pooled_lasso_pvalues

    def spy(law, points):
        shapes.append((np.shape(law.t_obs), points.shape))
        return real(law, points)

    monkeypatch.setattr(ivselect.lasso, "_pooled_lasso_pvalues", spy)
    report = lasso_conditional_inference(data, 1.0, sel, config=cfg)
    assert report.diagnostics["grid"]["expansion_rounds"] == 0
    assert len(shapes) == 3
    assert [points for _, points in shapes[:2]] == [(512, data.p)] * 2
    assert shapes[2] == ((7,), (7, 512, data.p))


def test_lasso_inference_builds_its_point_sets_in_one_call(monkeypatch):
    data, sel = _partial_selection(seed=63)
    calls = []
    real = ivselect.lasso.sobol_sets

    def spy(config, dim, scrambles):
        calls.append(list(scrambles))
        return real(config, dim, scrambles)

    monkeypatch.setattr(ivselect.lasso, "sobol_sets", spy)
    lasso_conditional_inference(data, 1.0, sel, config=SamplerConfig(n_samples=500, seed=64))
    assert calls == [list(range(8))]


def test_qmc_se_is_the_spread_of_a_per_scramble_loop():
    # the batched scrambles give, bit for bit, what integrating beta0's
    # law once per scramble gives; scramble 0 is the reported p-value
    data, sel = _partial_selection(seed=63)
    for cfg in (None, SamplerConfig(n_samples=500, seed=64)):
        report = lasso_conditional_inference(data, 1.0, sel, config=cfg)
        law = build_law_lasso(data, 1.0, sel, covariance_estimates(data, 1.0))
        loop_cfg = cfg if cfg is not None else SamplerConfig(n_samples=1024)
        per_scramble = [
            float(_pooled_lasso_pvalues(law, sobol_sets(loop_cfg, data.p, [k])[0])[1]) for k in range(8)
        ]
        assert report.conditional_pvalue == per_scramble[0]
        assert report.diagnostics["qmc_se"] == float(np.std(per_scramble, ddof=1))
