"""Randomized-Lasso selection, its KKT event, and post-selection inference."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import cumulative_trapezoid

from ivselect import (
    DGPConfig,
    IVDataset,
    LassoLaw,
    LassoSelection,
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
    sample_selection_paths,
    solve_randomized_lasso,
    tsls_estimate,
)
from ivselect.errors import BranchError
from ivselect.lasso import _pooled_lasso_pvalues
from ivselect.sampler import _pooled_pvalues


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
    return prepare(IVDataset(Y=y, D=d, Z=q))


def _random_instance(rng):
    n = int(rng.integers(50, 120))
    p = int(rng.integers(1, 7))
    mix = rng.standard_normal((n, p)) + 0.4 * rng.standard_normal((n, 1))
    gamma = rng.uniform(-1.0, 1.0, p)
    d = mix @ gamma + rng.standard_normal(n)
    y = d * rng.uniform(-1.0, 1.0) + rng.standard_normal(n)
    return prepare(IVDataset(Y=y, D=d, Z=mix))


def _objective(data, lam, omega, gamma):
    resid = data.D - data.Z @ gamma
    return (
        0.5 * float(resid @ resid)
        + lam * float(np.abs(gamma).sum())
        - float(omega @ gamma)
    )


def test_orthonormal_design_soft_threshold():
    data = _orthonormal_instance(seed=0)
    law = RandomizationLaw(scale=0.8, seed=5)
    omega = law.draw(data.p)
    rho = data.Z.T @ data.D + omega
    lam = 0.6 * float(np.max(np.abs(rho)))
    sel = solve_randomized_lasso(data, lam, law)
    expected = np.array([_soft(r, lam) for r in rho])
    np.testing.assert_allclose(sel.gamma_l, expected, atol=1e-8)
    assert sel.support_E == tuple(np.nonzero(expected)[0])
    assert 1 <= len(sel.support_E) < data.p


def test_full_shrinkage_gives_empty_support():
    data = _orthonormal_instance(seed=1)
    law = RandomizationLaw(scale=0.8, seed=6)
    omega = law.draw(data.p)
    lam = 1.01 * float(np.max(np.abs(data.Z.T @ data.D + omega)))
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


def test_kkt_residual_small_on_random_instances():
    rng = np.random.default_rng(41)
    for k in range(50):
        data = _random_instance(rng)
        law = RandomizationLaw(scale=float(rng.uniform(0.2, 3.0)), seed=700 + k)
        omega = law.draw(data.p)
        lam = float(rng.uniform(0.2, 1.2)) * float(np.max(np.abs(data.Z.T @ data.D + omega)))
        sel = solve_randomized_lasso(data, lam, law)
        resid = data.D - data.Z @ sel.gamma_l
        kkt = -data.Z.T @ resid + lam * sel.subgradient_u - sel.omega
        assert float(np.max(np.abs(kkt))) < 1e-6
        off = sel.off_support
        assert np.all(sel.gamma_l[off] == 0.0)
        assert np.all(np.abs(sel.subgradient_u[off]) <= 1.0)


def test_matches_proximal_gradient_solver():
    # independent oracle: proximal gradient on the same objective,
    # run to a fixed point (the problem is strongly convex, so the
    # iteration contracts geometrically)
    rng = np.random.default_rng(42)
    for k in range(20):
        data = _random_instance(rng)
        law = RandomizationLaw(scale=float(rng.uniform(0.3, 2.0)), seed=900 + k)
        omega = law.draw(data.p)
        lam = 0.4 * float(np.max(np.abs(data.Z.T @ data.D + omega)))
        sel = solve_randomized_lasso(data, lam, law)

        step = 1.0 / float(np.linalg.eigvalsh(data.Z.T @ data.Z)[-1])
        gamma = np.zeros(data.p)
        for _ in range(200000):
            grad = -data.Z.T @ (data.D - data.Z @ gamma) - omega
            new = gamma - step * grad
            new = np.sign(new) * np.maximum(np.abs(new) - step * lam, 0.0)
            if float(np.max(np.abs(new - gamma))) < 1e-14:
                gamma = new
                break
            gamma = new
        obj_cd = _objective(data, lam, omega, sel.gamma_l)
        obj_pg = _objective(data, lam, omega, gamma)
        assert abs(obj_cd - obj_pg) < 1e-8
        np.testing.assert_allclose(sel.gamma_l, gamma, atol=1e-6)


def test_selection_event_validation():
    with pytest.raises(ValueError, match="zero off the support"):
        LassoSelection(
            lambda_l=1.0, omega=np.zeros(2), gamma_l=np.array([0.5, 0.1]),
            support_E=(0,), signs_sE=np.array([1.0]),
            subgradient_u=np.array([1.0, 0.3]),
        )
    with pytest.raises(ValueError, match="signs"):
        LassoSelection(
            lambda_l=1.0, omega=np.zeros(2), gamma_l=np.array([-0.5, 0.0]),
            support_E=(0,), signs_sE=np.array([1.0]),
            subgradient_u=np.array([1.0, 0.3]),
        )
    with pytest.raises(ValueError, match="unit box"):
        LassoSelection(
            lambda_l=1.0, omega=np.zeros(2), gamma_l=np.array([0.5, 0.0]),
            support_E=(0,), signs_sE=np.array([1.0]),
            subgradient_u=np.array([1.0, 1.5]),
        )
    with pytest.raises(ValueError, match="positive"):
        LassoSelection(
            lambda_l=0.0, omega=np.zeros(1), gamma_l=np.zeros(1),
            support_E=(), signs_sE=np.zeros(0), subgradient_u=np.zeros(1),
        )


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


def test_retained_states_satisfy_selection_event():
    data, sel = _partial_selection(seed=50)
    law = build_law_lasso(data, 1.0, sel, covariance_estimates(data, 1.0))
    paths = sample_selection_paths(
        law, SamplerConfig(n_samples=800, burn_in=200, chains=2, seed=51)
    )
    assert paths.shape == (2, 800, 1 + data.p)
    flat = paths.reshape(-1, 1 + data.p)
    assert np.all(flat >= law.lower[None, :] - 0.0)
    assert np.all(flat <= law.upper[None, :] + 0.0)
    n_e = len(sel.support_E)
    for k, s in enumerate(sel.signs_sE):
        coord = flat[:, 1 + k]
        assert np.all(coord * s >= 0.0)
    box = flat[:, 1 + n_e:]
    assert np.all(np.abs(box) <= 1.0)
    assert np.std(flat[:, 0]) > 0.1


def test_far_orthant_states_satisfy_selection_event():
    # p = 1, gamma selected positive while the randomization puts its
    # conditional mean about 32 sd below zero (T settles near -16)
    law = LassoLaw(
        cols=np.array([[0.5, 1.0]]), base=np.array([40.0]),
        lower=np.array([-np.inf, 0.0]), upper=np.array([np.inf, np.inf]),
        gaussian_scale=1.0, g_log_density=RandomizationLaw(scale=1.0, seed=0).log_density,
        t_obs=0.0, theta_obs=np.array([0.0, 0.01]), support_E=(0,), signs_sE=np.array([1.0]),
    )
    paths = sample_selection_paths(
        law, SamplerConfig(n_samples=2000, burn_in=200, chains=2, seed=56)
    )
    flat = paths.reshape(-1, 2)
    assert np.all((law.lower <= flat) & (flat <= law.upper))
    # given T, gamma is nearly exponential with rate 32 (the distance in sd)
    assert abs(flat[:, 0].mean() + 16.0) < 0.2
    assert abs(flat[:, 1].mean() - 1.0 / 32.0) < 0.003


def test_single_instrument_marginal_matches_quadrature():
    # p = 1 with the instrument selected: integrating gamma over its
    # sign half-line out of phi(t) g(a t + z gamma + b) leaves
    # phi(t) * Phi(-s (a t + b) / c)
    data = generate(dgp_from_r(0.8, 0.6, n=150, p=1, seed=52))
    law_omega = RandomizationLaw(scale=default_lasso_scale(data), seed=53)
    lam = default_lasso_penalty(data, seed=54)
    sel = solve_randomized_lasso(data, lam, law_omega)
    assert sel.support_E == (0,)
    law = build_law_lasso(data, 1.0, sel, covariance_estimates(data, 1.0))
    paths = sample_selection_paths(
        law, SamplerConfig(n_samples=20000, burn_in=2000, chains=1, seed=55)
    )
    draws = paths[0, :, 0]

    a = float(law.cols[0, 0])
    b = float(law.base[0])
    c = law.gaussian_scale
    s = float(sel.signs_sE[0])
    ts = np.linspace(-12, 12, 12001)
    pdf = stats.norm.pdf(ts) * stats.norm.cdf(-s * (a * ts + b) / c)
    cdf = cumulative_trapezoid(pdf, ts, initial=0.0)
    cdf /= cdf[-1]
    ks = stats.kstest(draws, lambda x: np.interp(x, ts, cdf)).statistic
    assert ks < 0.03


def test_constant_jacobian_drops_out():
    # det(Z'Z) does not involve the sampler state: folding its log into
    # the density shifts every state's log mass by one constant, and
    # p-values, which see the density only through ratios, are unchanged
    data, sel = _partial_selection(seed=56)
    law = build_law_lasso(data, 1.0, sel, covariance_estimates(data, 1.0))
    sign, logdet = np.linalg.slogdet(data.Z.T @ data.Z)
    assert sign > 0
    base_g = law.g_log_density
    law_j = replace(law, g_log_density=lambda x: base_g(x) + logdet)
    rng = np.random.default_rng(57)
    diffs = []
    for _ in range(10):
        theta = law.theta_obs + 0.01 * rng.standard_normal(law.theta_obs.size)
        theta = np.clip(theta, law.lower + 1e-9, law.upper - 1e-9)
        diffs.append(law_j.log_density(theta) - law.log_density(theta))
    assert np.ptp(diffs) < 1e-12
    assert diffs[0] == pytest.approx(logdet, rel=1e-12)

    cfg = SamplerConfig(n_samples=1500, burn_in=300, chains=2, seed=58)
    ge_a, two_a = _pooled_lasso_pvalues([law], cfg, tags=(9,))
    ge_b, two_b = _pooled_lasso_pvalues([law_j], cfg, tags=(9,))
    assert ge_a[0] == ge_b[0] and two_a[0] == two_b[0]


def test_vanishing_randomization_matches_f_branch():
    # with small omega and a small penalty every instrument survives
    # selection almost surely, both conditioning events become vacuous,
    # and the two branches' p-values meet near the naive one.  Small
    # scales stiffen the Lasso chain, so this pools many of them; the
    # F branch's p-value is exact.
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
        _, two_l = _pooled_lasso_pvalues([law_l], cfg, tags=(1,))

        pretest = run_pretest(data, c0=10.0, seed=seed + 3, scale=0.35 * default_scale(data))
        assert pretest.passed
        law_f = build_law_tsls(data, 1.0, pretest, est)
        two_f = _pooled_pvalues(law_f).two_sided
        diffs.append(abs(float(two_l[0]) - float(two_f)))
    assert float(np.mean(diffs)) < 0.05


def test_conditional_inference_report_contents():
    data, sel = _partial_selection(seed=63)
    cfg = SamplerConfig(n_samples=2000, burn_in=500, chains=2, seed=64)
    report = lasso_conditional_inference(data, 1.0, sel, config=cfg)
    assert report.diagnostics["branch"] == "lasso"
    assert report.diagnostics["support"] == list(sel.support_E)
    assert 0.0 <= report.conditional_pvalue <= 1.0
    sub = prepare(IVDataset(Y=data.Y, D=data.D, Z=data.Z[:, list(sel.support_E)]))
    assert report.conditional_ci.contains(tsls_estimate(sub))
    assert report.naive_ci.contains(tsls_estimate(sub))
