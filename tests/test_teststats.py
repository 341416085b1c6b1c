"""TSLS, Anderson-Rubin, and CLR statistics with their reference laws."""

import decimal

import numpy as np
import pytest
from scipy import special, stats

from ivselect import (
    IVDataset,
    QuadratureConfig,
    ar_stat,
    clr_components,
    clr_statistic_from_q,
    clr_statistics,
    clr_tail,
    covariance_estimates,
    dgp_from_r,
    generate,
    prepare,
    tsls_estimate,
    tsls_stat,
)
from ivselect.teststats import _TAIL_BLOCK, _chi2_tails, _normal_tails


def _strong_data(seed=0, n=150, p=3):
    return generate(dgp_from_r(0.5, 0.6, n=n, p=p, seed=seed))


def test_tsls_stat_vanishes_at_estimate():
    data = _strong_data()
    beta_hat = tsls_estimate(data)
    tv = tsls_stat(data, beta_hat, covariance_estimates(data, beta_hat))
    assert tv.statistic == pytest.approx(0.0, abs=1e-10)
    assert tv.naive_pvalue == pytest.approx(1.0, abs=1e-10)


def test_tsls_pvalue_is_two_sided_normal():
    data = _strong_data(seed=1)
    tv = tsls_stat(data, 0.0, covariance_estimates(data, 0.0))
    expected = 2.0 * stats.norm.sf(abs(tv.statistic))
    assert tv.naive_pvalue == pytest.approx(expected, rel=1e-12)


def test_tsls_null_distribution_is_standard_normal():
    # null simulation: beta0 = beta*, moderate strength
    reps = 1000
    vals = np.empty(reps)
    for i in range(reps):
        data = generate(dgp_from_r(0.5, 0.6, n=500, p=3, seed=3000 + i))
        vals[i] = tsls_stat(data, 1.0, covariance_estimates(data, 1.0)).statistic
    ks = stats.kstest(vals, "norm").statistic
    assert ks < 0.08


def test_ar_hand_instance():
    # quadratic forms: r'P_Z r = 4.5, r'(I-P_Z) r = 1.5, so the
    # df-scaled ratio is (4.5/1) / (1.5/2) = 6
    z = np.array([[-1.0], [0.0], [1.0]])
    y = np.array([-2.0, 1.0, 1.0])
    d = np.array([-2.0, 1.0, 1.0])
    data = prepare(IVDataset(Y=y, D=d, Z=z))

    r = y  # beta0 = 0
    pz = z @ z.T / float(z[:, 0] @ z[:, 0])
    num = float(r @ pz @ r)
    den = float(r @ r) - num
    assert num == pytest.approx(4.5, abs=1e-12)
    assert den == pytest.approx(1.5, abs=1e-12)

    tv = ar_stat(data, 0.0)
    assert tv.statistic == pytest.approx((num / 1) / (den / 2), abs=1e-10)
    assert tv.statistic == pytest.approx(6.0, abs=1e-10)
    assert tv.naive_pvalue == pytest.approx(stats.f.sf(6.0, 1, 2), rel=1e-10)


def test_ar_zero_when_residual_orthogonal():
    rng = np.random.default_rng(30)
    z = rng.standard_normal((40, 2))
    z -= z.mean(axis=0)
    raw = rng.standard_normal(40)
    resid = raw - z @ np.linalg.solve(z.T @ z, z.T @ raw)
    beta0 = 0.7
    d = z @ np.array([0.5, -0.3]) + rng.standard_normal(40)
    y = d * beta0 + resid
    data = prepare(IVDataset(Y=y, D=d, Z=z))
    tv = ar_stat(data, beta0)
    assert tv.statistic == pytest.approx(0.0, abs=1e-8)
    assert tv.naive_pvalue == pytest.approx(1.0, abs=1e-8)


def test_ar_zero_residual_error():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((30, 2))
    z -= z.mean(axis=0)
    d = z @ np.array([1.0, 0.5])
    y = 2.0 * d + z @ np.array([0.3, -0.2])  # null residual lies in col(Z)
    data = prepare(IVDataset(Y=y, D=d, Z=z))
    with pytest.raises(Exception, match="denominator"):
        ar_stat(data, 2.0)


def test_ar_null_distribution_is_exact_f():
    reps = 1000
    vals = np.empty(reps)
    for i in range(reps):
        data = generate(dgp_from_r(0.3, 0.6, n=200, p=5, seed=5000 + i))
        vals[i] = ar_stat(data, 1.0).statistic
    ks = stats.kstest(vals, "f", args=(5, 195)).statistic
    assert ks < 0.08


def test_ar_matches_grid_minimum_of_its_objective():
    # the statistic over a beta grid must agree with the quadratic-form
    # objective evaluated directly from the arrays
    data = _strong_data(seed=2, n=120, p=2)
    z, y, d = data.Z, data.Y, data.D
    pz = z @ np.linalg.solve(z.T @ z, z.T)
    grid = np.linspace(-2, 4, 121)

    def oracle(b):
        r = y - d * b
        num = r @ pz @ r
        den = r @ r - num
        return (num / data.p) / (den / (data.n - data.p))

    direct = np.array([oracle(b) for b in grid])
    packaged = np.array([ar_stat(data, b).statistic for b in grid])
    np.testing.assert_allclose(packaged, direct, rtol=1e-9)
    b_min = grid[np.argmin(direct)]
    assert ar_stat(data, b_min).statistic == pytest.approx(direct.min(), rel=1e-9)


def test_ar_stat_over_an_array_of_nulls_equals_per_null_calls():
    data = _strong_data(seed=4, n=150, p=4)
    nulls = np.linspace(-2.0, 4.0, 61)
    batch = ar_stat(data, nulls)
    single = [ar_stat(data, float(b)) for b in nulls]
    np.testing.assert_array_equal(batch.statistic, [tv.statistic for tv in single])
    np.testing.assert_array_equal(batch.naive_pvalue, [tv.naive_pvalue for tv in single])
    np.testing.assert_array_equal(batch.beta0, nulls)


def test_clr_component_identities():
    data = _strong_data(seed=3, n=200, p=4)
    for beta0 in (-0.5, 0.9, 2.0):
        comps = clr_components(data, beta0)
        assert comps.q_u == pytest.approx(float(comps.u_hat @ comps.u_hat), abs=1e-10)
        assert comps.q_r == pytest.approx(float(comps.r_hat @ comps.r_hat), abs=1e-10)
        assert comps.q_ur == pytest.approx(float(comps.u_hat @ comps.r_hat), abs=1e-10)
        q = np.array([[comps.q_u, comps.q_ur], [comps.q_ur, comps.q_r]])
        assert np.linalg.eigvalsh(q).min() > -1e-10


def test_clr_collapse_when_cross_term_vanishes():
    assert clr_statistic_from_q(5.0, 0.0, 2.0) == pytest.approx(3.0, abs=1e-12)
    assert clr_statistic_from_q(2.0, 0.0, 5.0) == pytest.approx(0.0, abs=1e-12)


def _lr_reference(q_u, q_ur, q_r):
    """LR = (Q_U - Q_R + sqrt((Q_U - Q_R)^2 + 4 Q_UR^2)) / 2 in 50-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        u, ur, r = (decimal.Decimal(float(v)) for v in (q_u, q_ur, q_r))
        return float((u - r + ((u - r) ** 2 + 4 * ur * ur).sqrt()) / 2)


def test_clr_statistic_matches_a_50_digit_reference():
    # LR << Q_R is where the plain form cancels: the small-lr digest input
    # has LR 2.2e-11 at Q_R about 160, and the last case LR 1e-20 at 1e4
    rng = np.random.default_rng(34)
    q_u, q_r = 10.0 ** rng.uniform(-3.0, 4.0, (2, 200))
    q_ur = rng.uniform(-1.0, 1.0, 200) * np.sqrt(q_u * q_r)
    small = [(5.0, np.sqrt(2.2e-11 * 155.0), 160.0), (1e-3, 1e-8, 1e4), (2.0, -3e-9, 50.0), (1e4, 1e-8, 1e4)]
    q_u, q_ur, q_r = (np.concatenate([v, w]) for v, w in zip((q_u, q_ur, q_r), zip(*small)))
    lr = clr_statistic_from_q(q_u, q_ur, q_r)
    want = np.array([_lr_reference(*q) for q in zip(q_u, q_ur, q_r)])
    np.testing.assert_allclose(lr, want, rtol=1e-12, atol=0)


def test_clr_statistic_nonnegative_and_pvalue_valid():
    rng = np.random.default_rng(32)
    for seed in range(8):
        data = generate(dgp_from_r(rng.uniform(0.05, 0.4), 0.5, n=150, p=3, seed=60 + seed))
        beta0 = rng.uniform(-1, 2)
        lr, q_r = clr_statistics(data, beta0)
        naive_pvalue = clr_tail(lr, q_r, data.p, trunc=None, quad=QuadratureConfig())
        comps = clr_components(data, beta0)
        assert lr >= 0
        assert 0.0 <= naive_pvalue <= 1.0
        assert lr == pytest.approx(
            clr_statistic_from_q(comps.q_u, comps.q_ur, comps.q_r), abs=1e-12
        )


def test_statistics_invariant_to_instrument_recombination():
    rng = np.random.default_rng(33)
    z = rng.standard_normal((120, 3))
    d = z @ np.array([0.4, 0.3, -0.2]) + rng.standard_normal(120)
    y = 0.9 * d + rng.standard_normal(120)
    data = prepare(IVDataset(Y=y, D=d, Z=z))

    a_general = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    a_ortho = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    beta0 = 0.4

    tsls_base = tsls_stat(data, beta0, covariance_estimates(data, beta0)).statistic
    ar_base = ar_stat(data, beta0).statistic
    clr_base = clr_statistics(data, beta0)[0]

    mixed = prepare(IVDataset(Y=y, D=d, Z=z @ a_general))
    assert abs(tsls_stat(mixed, beta0, covariance_estimates(mixed, beta0)).statistic - tsls_base) < 1e-8
    assert abs(ar_stat(mixed, beta0).statistic - ar_base) < 1e-8

    rotated = prepare(IVDataset(Y=y, D=d, Z=z @ a_ortho))
    assert abs(clr_statistics(rotated, beta0)[0] - clr_base) < 1e-8


def _rel_err(got, want):
    return np.max(np.abs(got - want) / want)


def test_normal_tails_match_scipy_ndtr():
    # both tails from one erfc: to 1e-14 within 8 sds, and to 1e-12 as
    # far as the smaller tail stays above 1e-300 (scipy's own exp(-a^2)
    # is off by 2e-13 there); beyond it exactly 0 and 1, and NaN stays NaN
    rng = np.random.default_rng(3)
    near = np.concatenate([np.linspace(-8.0, 8.0, 160_001), rng.uniform(-8.0, 8.0, 100_000), [0.0]])
    upper, lower = _normal_tails(near)
    assert _rel_err(upper, special.ndtr(-near)) <= 1e-14
    assert _rel_err(lower, special.ndtr(near)) <= 1e-14
    edge = -special.ndtri(1e-300)
    far = np.concatenate([np.linspace(8.0, edge, 50_001), rng.uniform(8.0, edge, 50_000)])
    for sign in (1.0, -1.0):
        upper, lower = _normal_tails(sign * far)
        assert _rel_err(upper, special.ndtr(-sign * far)) <= (1e-12 if sign > 0 else 1e-14)
        assert _rel_err(lower, special.ndtr(sign * far)) <= (1e-14 if sign > 0 else 1e-12)
    beyond = np.array([38.5, 40.0, 1e3, 1e300, np.inf])
    for sign, small in ((1.0, 0), (-1.0, 1)):
        tails = _normal_tails(sign * beyond)
        assert np.all(tails[small] == 0.0) and np.all(tails[1 - small] == 1.0)
    assert all(np.isnan(tail) for tail in _normal_tails(np.nan))


def test_chi2_tails_of_a_value_do_not_depend_on_the_values_beside_it():
    # the series are summed block by block, each until its own terms are
    # negligible; a value's tails in a call of several blocks, beside values
    # that need many more terms, are its tails alone, bit for bit
    rng = np.random.default_rng(12)
    for p in (1, 2, 3, 10, 51):
        x = np.concatenate([
            rng.uniform(0.0, 4.0 * p, 2 * _TAIL_BLOCK), np.geomspace(1e-12, 1e4, 50), [0.0, np.inf, np.nan],
        ])
        rng.shuffle(x)
        cdf, sf = _chi2_tails(p, x)
        for i in rng.choice(x.size, 150, replace=False):
            alone = _chi2_tails(p, x[i : i + 1])
            np.testing.assert_array_equal((cdf[i], sf[i]), (alone[0][0], alone[1][0]), err_msg=f"p={p}")


def test_chi2_tails_match_scipy_chdtr():
    # cdf and sf at every integer p <= 200, from x = 1e-8 to where the sf
    # reaches 1e-300, to 1e-12 wherever scipy's value is above 1e-300
    # (exp rounding sets that floor: scipy's erfc and chdtrc(1, .) differ
    # by 2e-13 there); x = 0 and x = inf are exact
    for p in range(1, 201):
        x = np.concatenate([
            np.geomspace(1e-8, special.chdtri(p, 1e-300), 400),
            np.linspace(0.5 * p, 2.0 * p, 200),
        ])
        cdf, sf = _chi2_tails(p, x)
        for got, want in ((cdf, special.chdtr(p, x)), (sf, special.chdtrc(p, x))):
            seen = want >= 1e-300
            assert _rel_err(got[seen], want[seen]) <= 1e-12, p
            assert np.all(got[~seen] < 1e-299), p
        assert [list(tail) for tail in _chi2_tails(p, np.array([0.0, np.inf]))] == [[0.0, 1.0], [1.0, 0.0]]
