"""Conditional (t, d) law construction, the exact tail quadrature, the
Gibbs reference sampler, and CI inversion."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats
from scipy.integrate import cumulative_trapezoid
from scipy.stats import qmc

from ivselect import (
    ConditionalLaw,
    SamplerConfig,
    build_law_tsls,
    covariance_estimates,
    dgp_from_r,
    generate,
    invert_ci,
    run_pretest,
    sample_paths,
    tsls_estimate,
    tsls_standard_error,
    wald_interval,
)
from ivselect.errors import BranchError, SamplerError
from ivselect.model import Moments
from ivselect.sampler import (
    _generator,
    _pooled_pvalues,
    _truncnorm_ppf,
    sobol_points,
    sobol_sets,
)
from ivselect.simulate import _draw_batch, _row, _screen


def _passed_setup(seed=0, n=150, p=1, r=0.8, beta0=0.5, scale=None):
    data = generate(dgp_from_r(r, 0.6, n=n, p=p, beta_star=1.0, seed=seed))
    pretest = run_pretest(data, c0=10.0, seed=seed + 100, scale=scale)
    assert pretest.passed
    est = covariance_estimates(data, beta0)
    return data, pretest, build_law_tsls(data, beta0, pretest, est)


def _one(law, k):
    """Law k of a batch: every field with a batch axis is indexed."""
    vectors = ("w_st", "o", "u")
    return replace(law, **{
        name: getattr(law, name)[k]
        for name in (*vectors, "lam", "gaussian_scale", "t_obs", "d_obs")
        if np.ndim(getattr(law, name)) > (name in vectors)
    })


def test_build_law_requires_passed_screen():
    data = generate(dgp_from_r(0.01, 0.6, n=100, p=3, seed=1))
    pretest = run_pretest(data, c0=200.0, seed=2)
    assert not pretest.passed
    with pytest.raises(BranchError):
        build_law_tsls(data, 0.0, pretest, covariance_estimates(data, 0.0))


def test_law_density_positive_at_observed_state():
    for seed in range(6):
        _, pretest, law = _passed_setup(seed=seed, p=3)
        assert np.isfinite(law.log_density(law.t_obs, law.d_obs))
        assert law.d_obs == pytest.approx(pretest.d)
        assert abs(float(law.u @ law.u) - 1.0) < 1e-12


def _p1_t_marginal_cdf(law, span=12.0, points=12001):
    # single instrument, Gaussian g: integrating d > 0 out of
    # phi(t) g(a t + u d + e) leaves phi(t) * Phi(-u (a t + e) / c)
    a = float(law.slope[0])
    u0 = float(law.u[0])
    e0 = float(law.offset[0])
    c = law.gaussian_scale
    ts = np.linspace(-span, span, points)
    pdf = stats.norm.pdf(ts) * stats.norm.cdf(-u0 * (a * ts + e0) / c)
    cdf = cumulative_trapezoid(pdf, ts, initial=0.0)
    cdf /= cdf[-1]
    return ts, cdf


def test_single_instrument_t_marginal_matches_closed_form():
    _, _, law = _passed_setup(seed=3, p=1)
    draws, _ = sample_paths(law, SamplerConfig(n_samples=20000, burn_in=2000, seed=5, chains=1))
    ts, cdf = _p1_t_marginal_cdf(law)
    ks = stats.kstest(draws[0], lambda x: np.interp(x, ts, cdf)).statistic
    assert ks < 0.02
    # the quadrature's lower tail is the same CDF; the trapezoid
    # reference is good to about 1e-7 at this spacing
    points = np.linspace(-4.0, 4.0, 33)
    tails = _pooled_pvalues(replace(law, t_obs=points))
    np.testing.assert_allclose(tails.lower, np.interp(points, ts, cdf), rtol=0, atol=1e-6)
    np.testing.assert_allclose(tails.upper, 1.0 - tails.lower, rtol=0, atol=1e-12)


def _quad_tails(law):
    """Both tails at t_obs by adaptive quadrature over d, from the law's
    own density: t given d is normal with a d-free sd, so the weight of d
    is the density at t's conditional mean."""
    a, u, e, c = law.slope, law.u, law.offset, law.gaussian_scale
    prec = c * c + float(a @ a)
    sd = c / math.sqrt(prec)

    def mean_t(d):
        return -float(a @ (u * d + e)) / prec

    def log_w(d):
        return law.log_density(mean_t(d), d)

    top = 10.0 * (law.d_obs + law.lam + c + 1.0)
    while log_w(top) > log_w(0.5 * top):
        top *= 2.0
    peak = optimize.minimize_scalar(lambda d: -log_w(d), bounds=(1e-12, top), method="bounded",
                                    options={"xatol": 1e-10}).x
    ref = log_w(peak)
    while log_w(top) > ref - 50.0:
        top *= 2.0
    lo = 0.0
    if log_w(1e-12) < ref - 50.0:
        lo = optimize.brentq(lambda d: log_w(d) - ref + 50.0, 1e-12, peak)
    hi = optimize.brentq(lambda d: log_w(d) - ref + 50.0, peak, top)

    def part(tail):
        def f(d):
            z = (law.t_obs - mean_t(d)) / sd
            return math.exp(log_w(d) - ref) * (tail(z) if tail else 1.0)
        return integrate.quad(f, lo, hi, points=[peak], limit=400, epsabs=0.0, epsrel=1e-12)[0]

    den = part(None)
    return part(lambda z: stats.norm.sf(z)) / den, part(lambda z: stats.norm.cdf(z)) / den


def test_quadrature_matches_adaptive_quad():
    # nulls out to beta_hat +- 30 SE put t_obs deep in both tails.  Two
    # more rows move S inward along u so the screen passes by d_obs = 1e-6:
    # with omega kept, the weight's mode sits just above d = 0; with
    # omega grown along u as well, the mode is clipped at d = 0
    worst = 0.0
    for p, seed in ((1, 30), (3, 31), (10, 32)):
        data = generate(dgp_from_r(0.3, 0.8, n=1000, p=p, beta_star=1.0, seed=seed))
        pretest = run_pretest(data, c0=10.0, seed=seed)
        assert pretest.passed
        beta_hat, se = tsls_estimate(data), tsls_standard_error(data)
        nulls = beta_hat + se * np.linspace(-30.0, 30.0, 13)
        law = build_law_tsls(data, nulls, pretest, covariance_estimates(data, nulls))
        edge = _one(law, 6)
        shifts = np.array([edge.d_obs, edge.d_obs + 3.0])
        edges = replace(edge, o=edge.o - (shifts - 1e-6)[:, None] * edge.u, d_obs=1e-6)
        for batch in (law, edges):
            tails = _pooled_pvalues(batch)
            for k in range(tails.upper.size):
                up, lo = _quad_tails(_one(batch, k))
                worst = max(worst, abs(tails.upper[k] - up), abs(tails.lower[k] - lo))
            assert np.all(tails.error < 1e-10)
    # lam = 0 and a wide randomization leave a weight shaped by
    # (d + lam)^(p-1) rather than by its curvature at the mode, whose
    # right tail reaches past the curvature-based window
    c = 30.0
    gamma_law = ConditionalLaw(
        w_t=1.0, w_st=np.array([0.5, 0.0]), o=np.array([-c * c, 0.0]), u=np.array([1.0, 0.0]),
        lam=0.0, g_log_density=lambda x: -0.5 * float(x @ x) / c**2, jacobian_exponent=1,
        gaussian_scale=c, t_obs=0.01, d_obs=1.0,
    )
    tails = _pooled_pvalues(gamma_law)
    up, lo = _quad_tails(gamma_law)
    worst = max(worst, abs(tails.upper - up), abs(tails.lower - lo))
    assert worst < 1e-10


def _assert_batch_matches(law, singles):
    for name in ("w_st", "o", "u", "lam", "gaussian_scale", "t_obs", "d_obs"):
        ref = np.array([getattr(one, name) for one in singles])
        np.testing.assert_array_equal(np.broadcast_to(getattr(law, name), ref.shape), ref)
    tails = _pooled_pvalues(law)
    for k, one in enumerate(singles):
        for batched, single in zip(tails, _pooled_pvalues(one)):
            np.testing.assert_array_equal(batched[k], single)


def test_batched_law_build_equals_per_null_builds():
    # an array of nulls on one dataset
    data, pretest, _ = _passed_setup(seed=2, p=3)
    nulls = np.linspace(-1.0, 2.0, 7)
    law = build_law_tsls(data, nulls, pretest, covariance_estimates(data, nulls))
    assert law.t_obs.shape == (7,) and law.w_st.shape == (7, 3)
    _assert_batch_matches(
        law, [build_law_tsls(data, b0, pretest, covariance_estimates(data, b0)) for b0 in nulls]
    )
    # the passing replications of a batch, at one null
    rng = _generator(3, 1)
    mom = Moments.of(*_draw_batch(dgp_from_r(0.22, 0.6, n=200, p=3, seed=4), 60, rng))
    screen = _screen(mom, 10.0, rng)
    passing = np.flatnonzero(screen.passed)
    assert 10 < passing.size < 60
    est = covariance_estimates(mom, 1.0)
    law = build_law_tsls(mom[passing], 1.0, _row(screen, passing), est[passing])
    _assert_batch_matches(
        law, [build_law_tsls(mom[i], 1.0, _row(screen, i), est[i]) for i in passing]
    )


def test_truncnorm_ppf_matches_scipy_deep_in_the_tails():
    # scipy.stats.truncnorm is the independent reference; every interval
    # below lies where scipy's own formula keeps full precision
    inf = np.inf
    edges = [0.0, 1.0, 3.0, 8.0, 9.0, 15.0, 25.0, 30.0, 38.0]
    cases = [(a, inf) for a in edges] + [(-inf, -a) for a in edges]
    cases += [(a, a + 1e-8) for a in edges[3:]] + [(-a - 1e-8, -a) for a in edges[3:]]
    cases += [(-1.0, 2.0), (-2.0, 0.5), (-0.3, 0.1), (-0.05, 1.7)]
    u = np.array([1e-16, 1e-9, 0.01, 0.3, 0.7, 0.99, 1.0 - 1e-9, 1.0 - 1e-16])
    lo, hi = (np.repeat(np.array(v), u.size) for v in zip(*cases))
    uu = np.tile(u, len(cases))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, log_mass = _truncnorm_ppf(uu, lo, hi)
        free, free_mass = _truncnorm_ppf(u, np.full(u.size, -inf), np.full(u.size, inf))
    np.testing.assert_allclose(x, stats.truncnorm.ppf(uu, lo, hi), rtol=1e-12, atol=0)
    assert np.all((lo <= x) & (x <= hi))
    np.testing.assert_allclose(free, stats.norm.ppf(u), rtol=1e-12, atol=0)
    # the truncated density is phi(x) / mass at every x within the bounds;
    # on the 1e-8-wide intervals both formulas lose 8 digits to cancellation
    mass_ref = stats.norm.logpdf(x) - stats.truncnorm.logpdf(x, lo, hi)
    narrow = hi - lo < 1e-6
    np.testing.assert_allclose(log_mass[~narrow], mass_ref[~narrow], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(log_mass[narrow], mass_ref[narrow], rtol=1e-8, atol=0)
    assert np.all(free_mass == 0.0)


def _general_truncnorm_ppf(u, lo, hi):
    """_truncnorm_ppf's formula for any bounds, written out in full."""
    flip = lo > -hi
    a = np.where(flip, -hi, lo)
    b = np.where(flip, -lo, hi)
    log_a, log_b = special.log_ndtr(a), special.log_ndtr(b)
    log_mass = log_b + np.log(-np.expm1(log_a - log_b))
    log_v = np.where(flip, np.log1p(-u), np.log(u))
    x = special.ndtri_exp(np.logaddexp(log_a, log_v + log_mass))
    return np.clip(np.where(flip, -x, x), lo, hi), log_mass


def test_truncnorm_ppf_one_sided_path_equals_the_general_formula(monkeypatch):
    # one-sided bounds skip log Phi(-inf) and the identities it feeds; the
    # result must be the general formula's bit for bit, sign of zero included
    inf = np.inf
    edges = np.array([-40.0, -8.0, -1.0, 0.0, 1.0, 8.0, 40.0])
    u = np.array([1e-17, 1e-16, 1e-9, 0.3, 0.5, 0.99, 1.0 - 1e-9, 1.0 - 1e-16])
    lower = (edges[:, None], np.full((edges.size, 1), inf))
    upper = (np.full((edges.size, 1), -inf), -edges[:, None])
    both = tuple(np.concatenate(v) for v in zip(lower, upper))
    calls = []
    real = special.log_ndtr
    monkeypatch.setattr(special, "log_ndtr", lambda x: calls.append(1) or real(x))
    for lo, hi in (lower, upper, both):
        calls.clear()
        x, log_mass = _truncnorm_ppf(u, lo, hi)
        assert len(calls) == 1
        ref_x, ref_mass = _general_truncnorm_ppf(u, lo, hi)
        assert x.tobytes() == ref_x.tobytes()
        assert log_mass.tobytes() == ref_mass.tobytes()
    assert np.all(np.isfinite(x)) and np.any(log_mass < -800.0) and np.any(log_mass == 0.0)
    calls.clear()
    _truncnorm_ppf(u, np.array([[-1.0], [0.0]]), np.array([[1.0], [inf]]))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "dim, n_samples, seed",
    [(1, 1, 0), (1, 300, -7), (2, 16, 3), (3, 1000, 2**63 + 5), (10, 4096, 501), (31, 300, 2**40)],
)
def test_sobol_sets_equal_scipys_scrambled_sobol_bit_for_bit(dim, n_samples, seed):
    # scipy's LMS + shift engine, handed scramble k's stream, is the oracle;
    # the seeds outside [0, 2^63) are masked to 63 bits by _generator
    config = SamplerConfig(n_samples=n_samples, seed=seed)
    sets = sobol_sets(config, dim, range(8))
    log2_n = (n_samples - 1).bit_length()
    assert sets.shape == (8, 2**log2_n, dim)
    for k in range(8):
        ref = qmc.Sobol(dim, scramble=True, rng=_generator(seed, 5, k)).random_base2(log2_n)
        assert sets[k].tobytes() == np.clip(ref, 1e-16, 1.0 - 1e-16).tobytes()
    assert sobol_points(config, dim, 5).tobytes() == sets[5].tobytes()
    assert sobol_sets(config, dim, [3, 0]).tobytes() == sets[[3, 0]].tobytes()


def test_oversize_sobol_set_is_refused_before_allocating():
    # 2^31 points of 2 coordinates would take 32 GiB before any size check
    for n_samples in (2**30 + 1, 2**31):
        with pytest.raises(ValueError, match=r"at most 2\*\*30 points"):
            sobol_points(SamplerConfig(n_samples=n_samples), 2)


def test_huge_randomization_scale_gives_standard_normal():
    data = generate(dgp_from_r(0.8, 0.6, n=150, p=3, seed=4))
    big = 1e3 * float(np.linalg.norm(data.moments.s))
    pretest = run_pretest(data, c0=10.0, seed=9, scale=big)
    assert pretest.passed
    law = build_law_tsls(data, 0.5, pretest, covariance_estimates(data, 0.5))
    draws, _ = sample_paths(law, SamplerConfig(n_samples=20000, burn_in=2000, seed=10, chains=1))
    assert stats.kstest(draws[0], "norm").statistic < 0.02


def test_unconstrained_law_moments():
    # zero S-T covariance decouples t from the screen: t is exactly N(0,1)
    law = ConditionalLaw(
        w_t=1.0,
        w_st=np.zeros(2),
        o=np.zeros(2),
        u=np.array([1.0, 0.0]),
        lam=0.0,
        g_log_density=lambda x: -0.5 * float(np.sum(np.square(x))),
        jacobian_exponent=1,
        gaussian_scale=1.0,
        t_obs=0.0,
        d_obs=1.0,
    )
    draws, _ = sample_paths(law, SamplerConfig(n_samples=20000, burn_in=1000, seed=11, chains=1))
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 1.0) < 0.1


def test_invert_ci_strong_instruments_close_to_naive():
    data = generate(dgp_from_r(1.0, 0.8, n=1000, p=10, seed=77))
    pretest = run_pretest(data, c0=10.0, seed=3)
    assert pretest.passed
    report = invert_ci(data, pretest, alpha=0.05)
    naive = report.naive_ci
    cond = report.conditional_ci
    assert abs(cond.lower - naive.lower) < 0.10 * naive.width
    assert abs(cond.upper - naive.upper) < 0.10 * naive.width
    assert report.diagnostics["branch"] == "tsls"
    assert cond.contains(tsls_estimate(data))


def test_invert_ci_alpha_one_degenerates_to_argmax():
    # no grid p-value reaches 1.0, so the retained set is empty and the
    # interval collapses to the best-supported null
    data = generate(dgp_from_r(1.0, 0.8, n=400, p=4, seed=78))
    pretest = run_pretest(data, c0=10.0, seed=4)
    report = invert_ci(data, pretest, alpha=1.0)
    assert report.conditional_ci.width == 0.0
    assert report.diagnostics["grid"]["degenerate"]
    se = tsls_standard_error(data)
    assert abs(report.conditional_ci.lower - tsls_estimate(data)) < 2 * se


def test_wald_interval_formula():
    data = generate(dgp_from_r(0.7, 0.5, n=300, p=3, seed=79))
    iv = wald_interval(data, 0.05)
    beta_hat = tsls_estimate(data)
    se = tsls_standard_error(data)
    z = stats.norm.ppf(0.975)
    assert iv.lower == pytest.approx(beta_hat - z * se, rel=1e-10)
    assert iv.upper == pytest.approx(beta_hat + z * se, rel=1e-10)


def test_sampler_reproducibility():
    _, _, law = _passed_setup(seed=11, p=2)
    cfg = SamplerConfig(n_samples=2000, burn_in=200, seed=21, chains=1)
    np.testing.assert_array_equal(sample_paths(law, cfg), sample_paths(law, cfg))
    other = sample_paths(law, replace(cfg, seed=22))
    assert not np.array_equal(sample_paths(law, cfg), other)


def test_sample_paths_shapes_and_positivity():
    _, _, law = _passed_setup(seed=12, p=3)
    cfg = SamplerConfig(n_samples=500, burn_in=100, chains=3, seed=23)
    t_paths, d_paths = sample_paths(law, cfg)
    assert t_paths.shape == (3, 500) and d_paths.shape == (3, 500)
    assert np.all(d_paths > 0)
    assert not np.allclose(t_paths[0], t_paths[1])


def test_gibbs_sample_rejects_bad_initialization():
    _, _, law = _passed_setup(seed=14, p=2)
    general = replace(law, gaussian_scale=None)
    for run in (sample_paths, _pooled_pvalues):
        with pytest.raises(SamplerError):
            run(general)


def test_law_refuses_a_t_variance_the_engines_ignore():
    # the engines integrate T against an N(0, 1) prior; a law with another
    # w_t would get the tails of w_t = 1 without a word
    _, _, law = _passed_setup(seed=14, p=2)
    with pytest.raises(ValueError, match="w_t"):
        replace(law, w_t=2.0)
