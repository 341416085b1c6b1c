"""Simulation harness: data generation, the naive-versus-conditional
experiments, the brute-force oracle, and the CSV emitters.

The screen-passing geometry drives everything here.  With gamma* = r 1_p
the first-stage F is noncentral F(p, n-p) with noncentrality close to
n p r^2, so r = 1 passes essentially always, r around 0.1 on the
benchmark design passes roughly half the time (where selection bites),
and r = 0.05 essentially never passes.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ivselect import (
    CoverageCell,
    DGPConfig,
    ExperimentGrid,
    ExperimentResult,
    IVDataset,
    SamplerConfig,
    clr_components,
    coverage_csv,
    coverage_experiment,
    covariance_estimates,
    default_scale,
    dgp_from_r,
    f_statistic,
    generate,
    lasso_uniformity_experiment,
    prepare,
    pvalue_cdf_csv,
    rejection_oracle,
    run_pretest,
    tsls_estimate,
    tsls_standard_error,
    tsls_stat,
    uniformity_experiment,
    wald_interval,
)
from ivselect import simulate
from ivselect.errors import ExperimentError
from ivselect.pretest import RandomizationLaw, _generator
from ivselect.simulate import _child_seed, _draw_batch, _draw_moments, _screen


def _light(seed, n_samples=2500, burn_in=600):
    return SamplerConfig(n_samples=n_samples, burn_in=burn_in, chains=2, seed=seed)


# ---------------------------------------------------------------- generate


def test_no_signal_projection_uncorrelated():
    # gamma* = 0 and diagonal Sigma*: the first-stage fit is pure noise
    # and carries no information about the structural error
    for seed in range(5):
        config = DGPConfig(
            n=400,
            p=5,
            beta_star=0.7,
            gamma_star=0.0,
            sigma_star=np.eye(2),
            seed=seed,
        )
        data = generate(config)
        coef = np.linalg.lstsq(data.Z, data.D, rcond=None)[0]
        resid = data.Y - 0.7 * data.D
        corr = np.corrcoef(data.Z @ coef, resid)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(config.n)


def test_strong_design_always_passes_screen():
    # oracle: F is noncentral F(p, n-p) with ncp ~ n p r^2 = 10000, so
    # the sub-threshold probability is numerically zero; the additive
    # randomization has scale around 0.5 against a ||S|| - lambda gap
    # of roughly 95, so it cannot flip the decision
    tail = float(stats.ncf.cdf(10.0, 10, 990, 10000.0))
    assert tail < 1e-6
    passed = 0
    for i in range(200):
        data = generate(dgp_from_r(1.0, 0.8, seed=1000 + i))
        passed += run_pretest(data, seed=i).passed
    assert passed == 200


def test_tsls_estimate_recovers_effect_on_average():
    ests = np.array(
        [
            tsls_estimate(generate(dgp_from_r(0.5, 0.3, seed=2000 + i)))
            for i in range(500)
        ]
    )
    se = ests.std(ddof=1) / np.sqrt(ests.size)
    assert abs(ests.mean() - 1.0) < 3.0 * se


def test_generate_is_deterministic_in_seed():
    config = dgp_from_r(0.4, 0.2, n=150, p=2, seed=31)
    a, b = generate(config), generate(config)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.D, b.D)
    assert np.array_equal(a.Z, b.Z)
    other = generate(dgp_from_r(0.4, 0.2, n=150, p=2, seed=32))
    assert not np.array_equal(a.Y, other.Y)


# ---------------------------------------------- uniformity of the pivot


def test_conditional_pvalues_uniform_with_strong_instruments():
    res = uniformity_experiment(dgp_from_r(0.5, 0.8, n=500, p=3, seed=42), 10.0, 300)
    assert res.passing_rate == 1.0
    assert res.pvalue_samples.size == 300
    assert np.all((res.pvalue_samples >= 0) & (res.pvalue_samples <= 1))
    assert res.ks_pvalue > 0.01
    assert res.reps == 300
    assert res.naive_pvalue_samples.size == 300


def test_naive_pvalues_distorted_when_screen_binds():
    # around r = 0.1 the benchmark screen passes roughly 70% of draws,
    # so conditioning matters: the naive p-values among passers are far
    # from uniform while the conditional intervals keep most coverage
    res = uniformity_experiment(dgp_from_r(0.10, 0.8, seed=43), 10.0, 400)
    assert 0.5 < res.passing_rate < 0.9
    naive_ks = stats.kstest(res.naive_pvalue_samples, "uniform")
    assert naive_ks.pvalue < 0.01
    assert res.conditional_coverage - res.naive_coverage >= 0.10


def test_conditional_pivot_degrades_at_extreme_weakness():
    # documented expected failure of the pivot: with very weak
    # instruments the plug-in covariance and the normal limit are both
    # strained, and the conditional p-values drift from uniform; the
    # conditional intervals still dominate the naive ones by a wide
    # margin in coverage.  The drift is small: at 2400 reps (about 290
    # passing p-values) the KS test rejects in only 50-65% of seeds, so
    # the test runs 9600 reps, where seeds 40-49 all reject
    res = uniformity_experiment(dgp_from_r(0.08, 0.8, seed=43), 10.0, 9600)
    assert res.pvalue_samples.size >= 200
    assert res.ks_pvalue < 0.01
    assert res.naive_coverage < 0.5
    assert res.conditional_coverage >= 0.85


def test_uniformity_requires_enough_passing_draws():
    # ncp ~ 500 * 3 * 0.08^2 = 9.6 against threshold 10: only a few
    # percent of replications pass, below the minimum of 50
    with pytest.raises(ExperimentError, match="passed the screen"):
        uniformity_experiment(dgp_from_r(0.08, 0.5, n=500, p=3, seed=44), 10.0, 300)


# ------------------------------------------------------------- coverage


def test_coverage_without_endogeneity():
    cells = coverage_experiment(
        ExperimentGrid(r_values=(0.5,), sigma12_values=(0.0,), n=500, p=3, seed=5),
        10.0,
        0.05,
        500,
        branch="tsls_pass",
    )
    assert len(cells) == 1
    assert cells[0].r == 0.5 and cells[0].sigma12 == 0.0
    res = cells[0].result
    assert abs(res.naive_coverage - 0.95) <= 0.02
    assert abs(res.conditional_coverage - 0.95) <= 0.02
    assert abs(res.conditional_coverage - 0.95) <= 3.0 * res.conditional_se


def test_clr_branch_tracks_naive_when_screen_fails():
    # on the complementary branch the truncation removes only a small
    # part of the conditioning set, so the truncated and plain
    # likelihood-ratio tails give nearly the same answer
    cells = coverage_experiment(
        ExperimentGrid(r_values=(0.08,), sigma12_values=(0.9,), seed=12),
        10.0,
        0.05,
        250,
        branch="clr_fail",
    )
    res = cells[0].result
    assert res.passing_rate < 0.3
    assert abs(res.conditional_coverage - res.naive_coverage) < 0.03
    assert res.conditional_coverage >= 0.9
    failing = round((1.0 - res.passing_rate) * 250)
    assert res.pvalue_samples.size == failing
    assert res.naive_pvalue_samples.size == failing


def test_passing_rate_monotone_in_strength(moments_of):
    rates, ses = [], []
    for k, r in enumerate([0.05, 0.1, 0.2, 0.4, 0.8]):
        config = dgp_from_r(r, 0.5, n=300, p=3, seed=70 + k)
        rng = _generator(config.seed, 21)
        mom = moments_of(*_draw_batch(config, 400, rng))
        rate = float(np.mean(_screen(mom, 10.0, rng).passed))
        rates.append(rate)
        ses.append(np.sqrt(rate * (1.0 - rate) / 400.0))
    for k in range(len(rates) - 1):
        slack = 2.0 * np.hypot(ses[k], ses[k + 1])
        assert rates[k + 1] >= rates[k] - slack
    assert rates[-1] > rates[0] + 0.5


# --------------------------------------------------------------- oracle


def test_oracle_vacuous_randomization_recovers_standard_normal():
    # omega scale 500 against lambda around 5.5: the screen passes
    # everything, no conditioning references are set, so the retained
    # sample is the plain null law of T
    out = rejection_oracle(
        dgp_from_r(0.5, 0.5, n=200, p=3, seed=7),
        1.0,
        10.0,
        RandomizationLaw(scale=500.0, seed=0),
        6000,
    )
    assert out.size == 6000
    assert stats.kstest(out, "norm").statistic < 0.05


def test_oracle_widened_neighborhood_equals_passing_only():
    config = dgp_from_r(0.5, 0.5, n=200, p=3, seed=55)
    law = RandomizationLaw(scale=0.6, seed=0)
    plain = rejection_oracle(config, 1.0, 10.0, law, 3000)
    widened = rejection_oracle(
        config,
        1.0,
        10.0,
        law,
        3000,
        u_ref=np.array([1.0, 0.0, 0.0]),
        u_tol=np.pi,
        o_ref=np.zeros(3),
        o_tol=1e12,
    )
    assert np.array_equal(plain, widened)


def test_oracle_error_paths():
    config = dgp_from_r(0.5, 0.5, n=200, p=3, seed=55)
    law = RandomizationLaw(scale=0.6, seed=0)
    with pytest.raises(ExperimentError, match="acceptance rate"):
        rejection_oracle(
            config, 1.0, 10.0, law, 2000, o_ref=np.full(3, 50.0), o_tol=1e-9
        )
    with pytest.raises(ValueError, match="at least one replication"):
        rejection_oracle(config, 1.0, 10.0, law, 0)
    with pytest.raises(ValueError, match="z_fixed must have shape"):
        rejection_oracle(config, 1.0, 10.0, law, 100, z_fixed=np.ones((5, 2)))


# ------------------------------------------------- batch consistency


def test_batch_moments_match_single_dataset_path(moments_of):
    config = dgp_from_r(0.6, 0.5, n=250, p=4, seed=33)
    rng = _generator(config.seed, 21)
    z, y, d = _draw_batch(config, 5, rng)
    mom = moments_of(z, y, d)
    beta0 = 0.9
    est_all = covariance_estimates(mom, beta0)
    tv_all = tsls_stat(mom, beta0, est_all)
    comp_all = clr_components(mom, beta0)
    beta_all = tsls_estimate(mom)
    f_all = f_statistic(mom)
    zq = stats.norm.ppf(0.975)
    covers = np.abs(beta_all - 1.0) <= zq * tsls_standard_error(mom)
    for i in range(5):
        data = prepare(IVDataset(Y=y[i], D=d[i], Z=z[i]))
        est = covariance_estimates(data, beta0)
        assert np.allclose(mom.s[i], data.s, atol=1e-8)
        assert np.isclose(est_all[i, 0, 0], est[0, 0], rtol=1e-9)
        assert np.isclose(est_all[i, 0, 1], est[0, 1], rtol=1e-9)
        tv = tsls_stat(data, beta0, est)
        assert np.isclose(tv_all.statistic[i], tv.statistic, rtol=1e-9)
        assert np.isclose(tv_all.naive_pvalue[i], tv.naive_pvalue, rtol=1e-9)
        assert np.isclose(beta_all[i], tsls_estimate(data), rtol=1e-10)
        pre = run_pretest(data, c0=10.0)
        assert np.isclose(f_all[i], pre.f_stat, rtol=1e-9)
        comp = clr_components(data, beta0)
        assert np.isclose(comp_all.q_u[i], comp.q_u, rtol=1e-8)
        assert np.isclose(comp_all.q_ur[i], comp.q_ur, rtol=1e-8)
        assert np.isclose(comp_all.q_r[i], comp.q_r, rtol=1e-8)
        assert covers[i] == wald_interval(data, 0.05).contains(1.0)
    screen = _screen(mom, 10.0, _generator(0, 99))
    for i in range(5):
        data = prepare(IVDataset(Y=y[i], D=d[i], Z=z[i]))
        assert np.isclose(screen.lam[i], run_pretest(data, c0=10.0).lam, rtol=1e-9)
        assert np.isclose(screen.scale[i], default_scale(data), rtol=1e-12)


def test_moment_draw_matches_row_draw_in_law(moments_of):
    # the Bartlett draw against Moments of n-row datasets: the statistics
    # the experiments read must agree in law, and the moments must have
    # the exact Wishart mean (n - 1) M'M, written out here from the design
    config = dgp_from_r(0.3, 0.8, n=300, p=5, seed=19)
    n, p, beta = config.n, config.p, config.beta_star
    mom = _draw_moments(config, 40000, _generator(config.seed, 30))
    rows = [moments_of(*_draw_batch(config, 2000, _generator(config.seed, 31, i))) for i in range(5)]

    def stats_of(m):
        est = covariance_estimates(m, beta)
        return {
            "F": m.f,
            "beta_hat": m.beta_hat,
            "T": tsls_stat(m, beta, est).statistic,
            "omega00": m.omega[:, 0, 0],
            "omega01": m.omega[:, 0, 1],
        }

    drawn = stats_of(mom[:10000])
    rowed = [stats_of(m) for m in rows]
    for key, values in drawn.items():
        ref = np.concatenate([r[key] for r in rowed])
        assert stats.ks_2samp(values, ref).pvalue > 1e-3, key

    g, s = config.gamma_star, config.sigma_star
    dd = g @ g + s[1, 1]
    expected = {
        "ztz": np.eye(p),
        "ztd": g,
        "zty": beta * g,
        "dd": dd,
        "yd": beta * dd + s[0, 1],
        "yy": beta**2 * dd + 2.0 * beta * s[0, 1] + s[0, 0],
    }
    def dot(u, v):
        return np.einsum("ij,ij->i", u, v)

    by, bd = mom.b[:, :, 1], mom.b[:, :, 0]
    cross = {  # off R's blocks
        "zty": np.einsum("rij,rj->ri", mom.chol, mom.sy),
        "yd": dot(mom.sy, mom.s) + dot(by, bd),
        "yy": dot(mom.sy, mom.sy) + dot(by, by),
    }
    for key, mean in expected.items():
        draws = cross[key] if key in cross else getattr(mom, key)
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - (n - 1) * mean) <= 4.0 * se), key


def test_experiment_memory_does_not_grow_with_n():
    # rows of these designs would take 300 (and 100) x 20000 x 5 doubles,
    # 240 (and 80) MB
    lasso_config = DGPConfig(
        n=20000, p=3, beta_star=1.0, gamma_star=np.array([0.05, 0.0, 0.0]),
        sigma_star=np.array([[1.0, 0.5], [0.5, 1.0]]), seed=9,
    )
    for run in (
        lambda: uniformity_experiment(dgp_from_r(0.5, 0.8, n=20000, p=3, seed=9), 10.0, 300),
        lambda: lasso_uniformity_experiment(lasso_config, 100),
    ):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


# ------------------------------------------------------------ CSV output


def test_pvalue_cdf_csv_exact():
    text = pvalue_cdf_csv([0.5, 0.25, 1.0, 0.75])
    assert text == "p_sorted,ecdf\n0.25,0.25\n0.5,0.5\n0.75,0.75\n1.0,1.0\n"
    with pytest.raises(ValueError, match="no p-values"):
        pvalue_cdf_csv([])


def test_coverage_csv_exact():
    res = ExperimentResult(
        passing_rate=0.5,
        naive_coverage=0.75,
        conditional_coverage=1.0,
        pvalue_samples=np.array([0.1]),
        reps=4,
        passing_se=0.25,
        naive_se=0.125,
        conditional_se=0.0625,
    )
    text = coverage_csv([CoverageCell(r=0.5, sigma12=0.25, result=res)])
    assert text == (
        "r,sigma12,passing_rate,naive_cov,cond_cov,se\n"
        "0.5,0.25,0.5,0.75,1.0,0.0625\n"
    )


def test_experiment_outputs_bit_reproducible():
    config = dgp_from_r(0.8, 0.5, n=300, p=3, seed=14)
    for run in (
        lambda: uniformity_experiment(config, 10.0, 120),
        lambda: lasso_uniformity_experiment(config, 120),
    ):
        a, b = run(), run()
        assert pvalue_cdf_csv(a.pvalue_samples).encode() == pvalue_cdf_csv(
            b.pvalue_samples
        ).encode()
        assert np.array_equal(a.pvalue_samples, b.pvalue_samples)
        assert np.array_equal(a.naive_pvalue_samples, b.naive_pvalue_samples)
        assert (a.passing_rate, a.naive_coverage, a.conditional_coverage) == (
            b.passing_rate,
            b.naive_coverage,
            b.conditional_coverage,
        )
        assert (a.ks_statistic, a.ks_pvalue) == (b.ks_statistic, b.ks_pvalue)


# ------------------------------------------------- lasso selection cell


def test_lasso_selection_experiment_reports_selection_rate():
    config = DGPConfig(
        n=200,
        p=3,
        beta_star=1.0,
        gamma_star=np.array([0.9, 0.5, 0.0]),
        sigma_star=np.array([[1.0, 0.4], [0.4, 1.0]]),
        seed=77,
    )
    res = lasso_uniformity_experiment(
        config, 100, sampler=_light(8, n_samples=1500, burn_in=400)
    )
    m = res.pvalue_samples.size
    assert m >= 50
    assert res.passing_rate == m / 100.0
    assert np.all((res.pvalue_samples >= 0) & (res.pvalue_samples <= 1))
    assert res.naive_pvalue_samples.size == m
    assert np.isfinite(res.ks_statistic)
    assert 0.0 <= res.conditional_coverage <= 1.0


# ------------------------------------------------------------ validation


def test_config_validation_errors():
    eye = np.eye(2)
    # the Bartlett draw needs chi^2(n - 1 - j) for j <= p + 1
    for n in (4, 5):
        with pytest.raises(ValueError, match="n > p \\+ 2"):
            DGPConfig(n=n, p=3, beta_star=1.0, gamma_star=0.1, sigma_star=eye)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="beta_star must be finite"):
            DGPConfig(n=50, p=3, beta_star=bad, gamma_star=0.1, sigma_star=eye)
        with pytest.raises(ValueError, match="gamma_star must be finite"):
            DGPConfig(n=50, p=3, beta_star=1.0, gamma_star=[0.1, bad, 0.1], sigma_star=eye)
        with pytest.raises(ValueError, match="sigma_star must be finite"):
            DGPConfig(n=50, p=3, beta_star=1.0, gamma_star=0.1, sigma_star=[[1.0, bad], [bad, 1.0]])
    with pytest.raises(ValueError, match="length p"):
        DGPConfig(n=50, p=3, beta_star=1.0, gamma_star=np.ones(2), sigma_star=eye)
    with pytest.raises(ValueError, match="symmetric"):
        DGPConfig(
            n=50,
            p=3,
            beta_star=1.0,
            gamma_star=0.1,
            sigma_star=np.array([[1.0, 0.2], [0.3, 1.0]]),
        )
    with pytest.raises(ValueError, match="positive definite"):
        DGPConfig(
            n=50,
            p=3,
            beta_star=1.0,
            gamma_star=0.1,
            sigma_star=np.array([[1.0, 1.5], [1.5, 1.0]]),
        )


@pytest.mark.parametrize("branch", ["tsls_pass", "clr_fail"])
def test_coverage_refuses_a_bad_cell_before_any_draw(monkeypatch, branch):
    # r = nan cannot be drawn; the r = 0.2 cell before it must not run first
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the grid was checked")

    monkeypatch.setattr(simulate, "uniformity_experiment", no_cell)
    monkeypatch.setattr(simulate, "_clr_fail_cell", no_cell)
    grid = ExperimentGrid(r_values=(0.2, np.nan), sigma12_values=(0.5,), n=300, p=5)
    with pytest.raises(ValueError, match="gamma_star"):
        coverage_experiment(grid, 10.0, 0.05, 200, branch=branch)


def test_result_and_grid_validation_errors():
    kw = dict(
        pvalue_samples=np.array([0.5]),
        passing_se=0.1,
        naive_se=0.1,
        conditional_se=0.1,
    )
    with pytest.raises(ValueError, match="must lie in"):
        ExperimentResult(
            passing_rate=1.2, naive_coverage=0.9, conditional_coverage=0.9, reps=10, **kw
        )
    with pytest.raises(ValueError, match="at least 1"):
        ExperimentResult(
            passing_rate=0.5, naive_coverage=0.9, conditional_coverage=0.9, reps=0, **kw
        )
    with pytest.raises(ValueError, match="at least one cell"):
        ExperimentGrid(r_values=(), sigma12_values=(0.5,))


def test_experiment_precondition_errors():
    config = dgp_from_r(0.5, 0.5, n=100, p=2, seed=1)
    grid = ExperimentGrid(r_values=(0.5,), sigma12_values=(0.5,), n=100, p=2)
    with pytest.raises(ValueError, match="reps >= 100"):
        uniformity_experiment(config, 10.0, 99)
    with pytest.raises(ValueError, match="reps >= 200"):
        coverage_experiment(grid, 10.0, 0.05, 150)
    with pytest.raises(ValueError, match="unknown branch"):
        coverage_experiment(grid, 10.0, 0.05, 300, branch="ar_fail")
    with pytest.raises(ValueError, match="reps >= 100"):
        lasso_uniformity_experiment(config, 50)


def test_child_seed_and_benchmark_config():
    assert _child_seed(3, 40, 0, 1) == _child_seed(3, 40, 0, 1)
    assert _child_seed(3, 40, 0, 1) != _child_seed(3, 40, 1, 0)
    assert 0 <= _child_seed(12345, 7) < 2**63
    config = dgp_from_r(0.3, -0.4, n=80, p=6, seed=2)
    assert np.array_equal(config.gamma_star, np.full(6, 0.3))
    assert config.sigma_star[0, 1] == -0.4
    assert config.sigma_star[0, 0] == 1.0
    broadcast = DGPConfig(
        n=50, p=4, beta_star=1.0, gamma_star=0.7, sigma_star=np.eye(2)
    )
    assert np.array_equal(broadcast.gamma_star, np.full(4, 0.7))


def test_config_needs_an_instrument():
    # p = 0 would pass the other checks and fail later with an IndexError
    with pytest.raises(ValueError, match="need p >= 1 instruments, got p = 0"):
        DGPConfig(n=50, p=0, beta_star=1.0, gamma_star=np.zeros(0), sigma_star=np.eye(2))
