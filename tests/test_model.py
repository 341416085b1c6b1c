"""Dataset preparation, the Moments core, TSLS point estimation, and
covariance mapping, with property tests of the invariances the model claims."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ivselect import (
    DGPConfig,
    IVDataset,
    Moments,
    ar_stat,
    clr_components,
    covariance_estimates,
    default_scale,
    dgp_from_r,
    f_statistic,
    generate,
    penalty_lambda,
    prepare,
    sufficient_statistic,
    tsls_estimate,
    tsls_standard_error,
    tsls_stat,
)
from ivselect.errors import (
    DegenerateFirstStageError,
    DimensionError,
    RankDeficiencyError,
)
from ivselect.simulate import _draw_batch


def _centered(rng, n, p):
    z = rng.standard_normal((n, p))
    return z - z.mean(axis=0)


def test_prepare_identity_when_centered():
    rng = np.random.default_rng(0)
    z = _centered(rng, 40, 3)
    d = z @ np.array([0.5, -0.2, 0.1]) + rng.standard_normal(40)
    d -= d.mean()
    y = 2.0 * d + rng.standard_normal(40)
    y -= y.mean()
    out = prepare(IVDataset(Y=y, D=d, Z=z))
    np.testing.assert_allclose(out.Y, y, atol=1e-12)
    np.testing.assert_allclose(out.D, d, atol=1e-12)
    np.testing.assert_allclose(out.Z, z, atol=1e-12)


def test_prepare_constant_covariate_is_plain_centering():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((30, 2)) + 5.0
    d = rng.standard_normal(30) - 2.0
    y = rng.standard_normal(30) + 1.0
    x = np.full((30, 1), 3.7)
    out = prepare(IVDataset(Y=y, D=d, Z=z, X=x))
    np.testing.assert_allclose(out.Y, y - y.mean(), atol=1e-10)
    np.testing.assert_allclose(out.D, d - d.mean(), atol=1e-10)
    np.testing.assert_allclose(out.Z, z - z.mean(axis=0), atol=1e-10)
    assert out.X is None


def test_prepare_matches_normal_equations_oracle():
    # independent oracle: residualize on [1, X] by solving the normal
    # equations directly, which equals center-then-residualize by FWL
    rng = np.random.default_rng(2)
    n, p, k = 50, 2, 3
    z = rng.standard_normal((n, p)) + 1.0
    x = rng.standard_normal((n, k)) * np.array([1.0, 3.0, 0.5]) - 2.0
    d = rng.standard_normal(n)
    y = rng.standard_normal(n)

    g = np.column_stack([np.ones(n), x])
    m = np.column_stack([y, d, z])
    coef = np.linalg.solve(g.T @ g, g.T @ m)
    resid = m - g @ coef

    out = prepare(IVDataset(Y=y, D=d, Z=z, X=x))
    np.testing.assert_allclose(out.Y, resid[:, 0], atol=1e-10)
    np.testing.assert_allclose(out.D, resid[:, 1], atol=1e-10)
    np.testing.assert_allclose(out.Z, resid[:, 2:], atol=1e-10)


def test_prepare_rank_deficiency_names_columns():
    rng = np.random.default_rng(3)
    z1 = rng.standard_normal(25)
    z = np.column_stack([z1, 2.0 * z1])
    with pytest.raises(RankDeficiencyError, match="z"):
        prepare(IVDataset(Y=rng.standard_normal(25), D=rng.standard_normal(25), Z=z))


def test_prepare_rejects_instruments_the_moments_core_cannot_invert():
    # singular-value ratio about 5e-8: above RANK_RTOL, yet Z'Z's
    # eigenvalue ratio (its square) is far below it
    rng = np.random.default_rng(6)
    n = 200
    z1, z3 = rng.standard_normal(n), rng.standard_normal(n)
    z = np.column_stack([z1, z1 + 1e-7 * rng.standard_normal(n), z3])
    with pytest.raises(RankDeficiencyError) as info:
        prepare(IVDataset(Y=rng.standard_normal(n), D=rng.standard_normal(n), Z=z))
    assert info.value.columns in (["z1"], ["z2"])


def test_prepare_collinear_covariate_named():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((25, 1))
    x = np.column_stack([z[:, 0], rng.standard_normal(25)])
    with pytest.raises(RankDeficiencyError):
        prepare(IVDataset(Y=rng.standard_normal(25), D=rng.standard_normal(25), Z=z, X=x))


def test_row_count_mismatch_rejected():
    with pytest.raises(DimensionError, match="row counts"):
        IVDataset(Y=np.zeros(5), D=np.zeros(4), Z=np.zeros((5, 1)))


def test_tsls_exact_fit():
    rng = np.random.default_rng(5)
    z = _centered(rng, 20, 1)
    d = z[:, 0].copy()
    y = 2.0 * d
    assert tsls_estimate(prepare(IVDataset(Y=y, D=d, Z=z))) == pytest.approx(2.0, abs=1e-12)


def test_tsls_zero_numerator():
    rng = np.random.default_rng(6)
    z = _centered(rng, 20, 1)
    d = z[:, 0] + 0.1 * rng.standard_normal(20)
    y = np.full(20, 4.2)  # constant outcome centers to zero
    assert tsls_estimate(prepare(IVDataset(Y=y, D=d, Z=z))) == pytest.approx(0.0, abs=1e-12)


def test_tsls_degenerate_first_stage():
    rng = np.random.default_rng(7)
    z = _centered(rng, 30, 2)
    raw = rng.standard_normal(30)
    # project the treatment onto the orthogonal complement of col(Z)
    d = raw - z @ np.linalg.solve(z.T @ z, z.T @ raw)
    y = rng.standard_normal(30)
    data = prepare(IVDataset(Y=y, D=d, Z=z))
    with pytest.raises(DegenerateFirstStageError):
        tsls_estimate(data)


def test_covariance_at_zero_equals_omega():
    data = generate(DGPConfig(n=120, p=3, beta_star=1.0, gamma_star=0.4,
                              sigma_star=np.array([[1.0, 0.3], [0.3, 1.0]]), seed=8))
    est = covariance_estimates(data, 0.0)
    np.testing.assert_allclose(est.sigma_hat, est.omega_hat, atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), beta0=st.floats(-3.0, 3.0))
def test_covariance_mapping_consistency(seed, beta0):
    data = generate(DGPConfig(n=200, p=4, beta_star=1.0, gamma_star=0.5,
                              sigma_star=np.array([[1.0, 0.8], [0.8, 1.0]]), seed=seed))
    est = covariance_estimates(data, beta0)
    b = np.array([[1.0, beta0], [0.0, 1.0]])
    np.testing.assert_allclose(b @ est.sigma_hat @ b.T, est.omega_hat, atol=1e-12)
    binv = np.array([[1.0, -beta0], [0.0, 1.0]])
    np.testing.assert_allclose(est.sigma_hat, binv @ est.omega_hat @ binv.T, atol=1e-10)


def test_covariance_estimates_spd():
    data = generate(DGPConfig(n=150, p=2, beta_star=1.0, gamma_star=0.3,
                              sigma_star=np.array([[1.0, -0.5], [-0.5, 2.0]]), seed=10))
    est = covariance_estimates(data, 0.4)
    for mat in (est.omega_hat, est.sigma_hat):
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)
        assert np.linalg.eigvalsh(mat).min() > 0


def test_covariance_monte_carlo_recovers_truth():
    # Sigma_hat(beta*) should center on Sigma* across replications
    sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
    reps = 500
    entries = np.empty((reps, 3))
    for i in range(reps):
        cfg = DGPConfig(n=200, p=3, beta_star=1.0, gamma_star=0.5,
                        sigma_star=sigma, seed=1000 + i)
        est = covariance_estimates(generate(cfg), 1.0)
        entries[i] = (est.sigma_hat[0, 0], est.sigma_hat[0, 1], est.sigma_hat[1, 1])
    mean = entries.mean(axis=0)
    se = entries.std(axis=0, ddof=1) / np.sqrt(reps)
    target = np.array([sigma[0, 0], sigma[0, 1], sigma[1, 1]])
    assert np.all(np.abs(mean - target) < 3.0 * se)


@st.composite
def _mixing_matrices(draw, p):
    # U diag(sv) V' with singular values in [0.1, 10]: condition number <= 100
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((p, p)))[0]
    v = np.linalg.qr(rng.standard_normal((p, p)))[0]
    sv = draw(hnp.arrays(float, p, elements=st.floats(0.1, 10.0)))
    return (u * sv) @ v.T


def _statistics(data, beta0):
    est = covariance_estimates(data, beta0)
    return np.concatenate([
        [
            f_statistic(data),
            float(np.linalg.norm(sufficient_statistic(data))),
            tsls_estimate(data),
            tsls_stat(data, beta0, est).statistic,
            ar_stat(data, beta0).statistic,
        ],
        clr_components(data, beta0, est).q_hat[[0, 0, 1], [0, 1, 1]],
    ])


@given(a=_mixing_matrices(4), beta0=st.floats(-2.0, 4.0))
def test_tsls_invariant_to_instrument_recombination(a, beta0):
    # F, ||S||, beta_hat, T, AR and (Q_U, Q_UR, Q_R) depend on Z only
    # through its column space
    rng = np.random.default_rng(12)
    z = rng.standard_normal((100, 4))
    d = z @ np.array([0.5, 0.2, -0.3, 0.4]) + rng.standard_normal(100)
    y = 1.5 * d + rng.standard_normal(100)
    base = _statistics(prepare(IVDataset(Y=y, D=d, Z=z)), beta0)
    mixed = _statistics(prepare(IVDataset(Y=y, D=d, Z=z @ a)), beta0)
    np.testing.assert_allclose(mixed, base, rtol=1e-8, atol=1e-10)


def _tsls_pair(data, beta0):
    return tsls_estimate(data), tsls_stat(data, beta0, covariance_estimates(data, beta0)).statistic


@given(
    log_a=st.floats(-6.0, 12.0),
    sign=st.sampled_from([-1.0, 1.0]),
    shift=st.floats(-3.0, 3.0),
    beta0=st.floats(-2.0, 4.0),
)
def test_tsls_equivariant_under_outcome_maps(log_a, sign, shift, beta0):
    # Y -> aY + bD: beta_hat -> a beta_hat + b and T(a beta0 + b) = sign(a) T(beta0).
    # b = shift * |a|: once bD outweighs aY by a factor k, Sigma_hat from
    # cross-moments loses about k^2 ulps (see Moments), so b scales with a
    a = sign * 10.0**log_a
    b = shift * abs(a)
    rng = np.random.default_rng(17)
    z = rng.standard_normal((80, 3))
    d = z @ np.array([0.6, -0.4, 0.3]) + rng.standard_normal(80)
    y = 0.8 * d + rng.standard_normal(80)
    beta_hat, t = _tsls_pair(prepare(IVDataset(Y=y, D=d, Z=z)), beta0)
    beta_map, t_map = _tsls_pair(prepare(IVDataset(Y=a * y + b * d, D=d, Z=z)), a * beta0 + b)
    assert beta_map == pytest.approx(a * beta_hat + b, rel=1e-9)
    assert t_map == pytest.approx(sign * t, rel=1e-8, abs=1e-10)


@given(log_c=st.floats(-6.0, 12.0), sign=st.sampled_from([-1.0, 1.0]), beta0=st.floats(-2.0, 4.0))
def test_tsls_equivariant_under_treatment_scaling(log_c, sign, beta0):
    # D -> cD: beta_hat -> beta_hat / c, T(beta0 / c) = sign(c) T(beta0), F unchanged
    c = sign * 10.0**log_c
    rng = np.random.default_rng(18)
    z = rng.standard_normal((80, 3))
    d = z @ np.array([0.6, -0.4, 0.3]) + rng.standard_normal(80)
    y = 0.8 * d + rng.standard_normal(80)
    base = prepare(IVDataset(Y=y, D=d, Z=z))
    scaled = prepare(IVDataset(Y=y, D=c * d, Z=z))
    beta_hat, t = _tsls_pair(base, beta0)
    beta_map, t_map = _tsls_pair(scaled, beta0 / c)
    assert beta_map == pytest.approx(beta_hat / c, rel=1e-9)
    assert t_map == pytest.approx(sign * t, rel=1e-8, abs=1e-10)
    assert f_statistic(scaled) == pytest.approx(f_statistic(base), rel=1e-9)


@given(seed=st.integers(0, 2**32 - 1), beta0=st.floats(-2.0, 4.0))
def test_batched_moments_rows_match_single_datasets(seed, beta0):
    # row i of a batched Moments gives what the dataset's own path gives
    config = dgp_from_r(0.3, 0.5, n=120, p=3, seed=seed)
    z, y, d = _draw_batch(config, 3, np.random.default_rng(seed))
    batch = Moments.of(z, y, d)
    assert batch.omega.shape == (3, 2, 2)  # cached on the batch, so rows carry cached rows
    for i in range(3):
        data = prepare(IVDataset(Y=y[i], D=d[i], Z=z[i]))
        row = _statistics(batch[i], beta0)
        np.testing.assert_allclose(row, _statistics(data, beta0), rtol=1e-9)
        assert default_scale(batch[i]) == pytest.approx(default_scale(data), rel=1e-9)
        assert penalty_lambda(batch[i], 10.0) == pytest.approx(penalty_lambda(data, 10.0), rel=1e-9)


def test_s_norm_ties_to_projected_quadratic():
    rng = np.random.default_rng(13)
    data = prepare(IVDataset(Y=rng.standard_normal(60), D=rng.standard_normal(60),
                             Z=rng.standard_normal((60, 5))))
    s = sufficient_statistic(data)
    coef = np.linalg.lstsq(data.Z, data.D, rcond=None)[0]
    direct = float(data.D @ (data.Z @ coef))
    assert abs(float(s @ s) - direct) < 1e-8 * max(direct, 1.0)


def test_standard_error_matches_quadratic_forms():
    # recompute from raw arrays: sqrt of Sigma_hat_11 at beta_hat over D'P_Z D
    rng = np.random.default_rng(14)
    z = rng.standard_normal((80, 3))
    d = z @ np.array([0.6, 0.2, -0.1]) + rng.standard_normal(80)
    y = 0.8 * d + rng.standard_normal(80)
    data = prepare(IVDataset(Y=y, D=d, Z=z))

    zc, yc, dc = data.Z, data.Y, data.D
    pz = zc @ np.linalg.solve(zc.T @ zc, zc.T)
    dpd = dc @ pz @ dc
    beta_hat = (dc @ pz @ yc) / dpd
    resid = yc - beta_hat * dc
    mz = np.eye(80) - pz
    sigma11 = resid @ mz @ resid / (80 - 3)
    expected = np.sqrt(sigma11 / dpd)

    assert tsls_standard_error(data) == pytest.approx(expected, rel=1e-10)
    assert tsls_estimate(data) == pytest.approx(beta_hat, rel=1e-10)
