"""Dataset preparation, the Moments core, TSLS point estimation, and
covariance mapping, with property tests of the invariances the model claims."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from ivselect import (
    DGPConfig,
    IVDataset,
    Moments,
    ar_stat,
    clr_components,
    covariance_estimates,
    default_lasso_penalty,
    default_lasso_scale,
    default_scale,
    dgp_from_r,
    f_statistic,
    generate,
    penalty_lambda,
    prepare,
    tsls_estimate,
    tsls_standard_error,
    tsls_stat,
)
from ivselect.errors import (
    CovarianceError,
    DegenerateFirstStageError,
    DimensionError,
    RankDeficiencyError,
)
from ivselect.model import require_prepared
from ivselect.pretest import _generator
from ivselect.simulate import _draw_batch, _draw_moments, _screen


def _assert_moments_close(got, want, atol):
    """Every block of got's factor within atol of want's."""
    assert got.n == want.n
    for name in ("chol", "s", "sy", "b"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=atol, err_msg=name)


def _centered(rng, n, p):
    z = rng.standard_normal((n, p))
    return z - z.mean(axis=0)


def test_prepare_identity_when_centered(moments_of):
    rng = np.random.default_rng(0)
    z = _centered(rng, 40, 3)
    d = z @ np.array([0.5, -0.2, 0.1]) + rng.standard_normal(40)
    d -= d.mean()
    y = 2.0 * d + rng.standard_normal(40)
    y -= y.mean()
    _assert_moments_close(prepare(IVDataset(Y=y, D=d, Z=z)), moments_of(z, y, d), atol=1e-12)


def test_prepare_constant_covariate_is_plain_centering(moments_of):
    rng = np.random.default_rng(1)
    z = rng.standard_normal((30, 2)) + 5.0
    d = rng.standard_normal(30) - 2.0
    y = rng.standard_normal(30) + 1.0
    x = np.full((30, 1), 3.7)
    out = prepare(IVDataset(Y=y, D=d, Z=z, X=x))
    _assert_moments_close(out, moments_of(z - z.mean(axis=0), y - y.mean(), d - d.mean()), atol=1e-10)


def test_prepare_matches_normal_equations_oracle(moments_of):
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
    _assert_moments_close(out, moments_of(resid[:, 2:], resid[:, 0], resid[:, 1]), atol=1e-10)


def test_prepare_rank_deficiency_names_columns():
    rng = np.random.default_rng(3)
    z1 = rng.standard_normal(25)
    z = np.column_stack([z1, 2.0 * z1])
    with pytest.raises(RankDeficiencyError, match="z"):
        prepare(IVDataset(Y=rng.standard_normal(25), D=rng.standard_normal(25), Z=z))


def test_prepare_rejects_instruments_the_moments_core_cannot_invert():
    # z2's angle to z1 has sine about 5e-8: above RANK_RTOL, yet below
    # the sqrt(RANK_RTOL) the moments core applies to L_jj / ||z_j||
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


def _covariate_design(n=300, seed=7):
    """(y, d, z, x): three covariates that three instruments load on."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3)) - 1.0
    z = rng.standard_normal((n, 3)) + 0.5 * x + 2.0
    d = z @ np.array([0.4, 0.3, 0.2]) + x @ np.array([0.5, -0.5, 1.0]) + rng.standard_normal(n)
    y = d + x @ np.array([-0.3, 0.2, 0.1]) + rng.standard_normal(n)
    return y, d, z, x


def _named(y, d, z, x=None):
    with pytest.raises(RankDeficiencyError) as info:
        prepare(IVDataset(Y=y, D=d, Z=z, X=x))
    return info.value.columns


def test_prepare_names_the_dependent_column():
    y, d, z, x = _covariate_design()
    # p = 1, the instrument is a covariate: only its residual norm relative
    # to its own centered norm sees it; relative to Z's scale it is lost
    assert _named(y, d, x[:, :1], x) == ["z1"]
    z_const = z.copy()
    z_const[:, 1] = 3.7
    assert _named(y, d, z_const, x) == ["z2"]
    assert _named(y, d, z_const) == ["z2"]
    assert _named(y, d, z_const[:, 1:2]) == ["z1"]
    x_dep = np.column_stack([x, x[:, 0] - 2.0 * x[:, 2]])
    (named,) = _named(y, d, z, x_dep)
    assert named in ("x1", "x3", "x4")
    z_sum = z.copy()
    z_sum[:, 2] = x[:, 1] - z[:, 1]  # z2 + z3 lies in span(X)
    assert _named(y, d, z_sum, x) in (["z2"], ["z3"])


def test_prepare_verdicts_ignore_column_units():
    # every rank rule is relative to the columns it judges, so rescaling X
    # (any column) or Z (all columns) changes no verdict and no moment
    # beyond Z's units in L
    y, d, z, x = _covariate_design()
    base = prepare(IVDataset(Y=y, D=d, Z=z, X=x))

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9 * np.max(np.abs(b)))

    for s in (1e-12, 1e-6, 1e6, 1e12):
        for sx in (np.full(3, s), np.array([s, 1.0, 1.0 / s])):
            out = prepare(IVDataset(Y=y, D=d, Z=z, X=x * sx))
            for a, b in ((out.chol, base.chol), (out.s, base.s), (out.sy, base.sy), (out.b, base.b)):
                close(a, b)
        out = prepare(IVDataset(Y=y, D=d, Z=s * z, X=x))
        for a, b in ((out.chol / s, base.chol), (out.s, base.s), (out.sy, base.sy), (out.b, base.b)):
            close(a, b)


def test_prepare_factorizes_no_n_row_matrix(monkeypatch):
    # the rank rules read numbers the fit and the moments already hold;
    # SVD and pivoted QR run only to name columns once a rule has failed
    import ivselect.model as model

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    monkeypatch.setattr(model, "pivoted_qr", spy("pivoted_qr", model.pivoted_qr))
    y, d, z, x = _covariate_design(n=2000)
    prepare(IVDataset(Y=y, D=d, Z=z, X=x))
    assert calls == []
    assert _named(y, d, x[:, :1], x) == ["z1"] and calls == []  # named without factorizing
    z[:, 2] = z[:, 0]
    _named(y, d, z, x)
    assert calls == ["pivoted_qr", "svd"]


def test_prepare_memory_does_not_grow_with_rows():
    # prepare copies one block of rows at a time into the factor and keeps
    # none: the tracemalloc peaks of 4 and 16 blocks of the same columns
    # agree within one block's bytes, as ingest's do
    import tracemalloc

    from ivselect.model import _BLOCK_ROWS

    peaks = []
    for blocks in (4, 16):
        raw = IVDataset(*_covariate_design(n=blocks * _BLOCK_ROWS))
        tracemalloc.start()
        try:
            prepare(raw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block_bytes = _BLOCK_ROWS * 8 * 8  # one block of [X Z D Y]
    assert abs(peaks[1] - peaks[0]) < block_bytes, peaks


def test_nearly_centered_rows_are_prepared():
    # column means 1e-9 of their magnitude: a row dataset is never taken
    # as centered as it stands, so every answer is prepare's bit for bit
    rng = np.random.default_rng(15)
    z = rng.standard_normal((200, 3))
    d = z @ np.array([0.5, 0.3, 0.2]) + rng.standard_normal(200)
    y = d + rng.standard_normal(200)
    y, d, z = (a - a.mean(axis=0) + 1e-9 * np.max(np.abs(a)) for a in (y, d, z))
    raw = IVDataset(Y=y, D=d, Z=z)
    m = prepare(IVDataset(Y=y, D=d, Z=z))
    assert np.array_equal(_statistics(raw, 0.7), _statistics(m, 0.7))
    assert tsls_standard_error(raw) == tsls_standard_error(m)
    assert default_scale(raw) == default_scale(m)


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
    np.testing.assert_allclose(est, data.moments.omega, atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), beta0=st.floats(-3.0, 3.0))
def test_covariance_mapping_consistency(seed, beta0):
    data = generate(DGPConfig(n=200, p=4, beta_star=1.0, gamma_star=0.5,
                              sigma_star=np.array([[1.0, 0.8], [0.8, 1.0]]), seed=seed))
    est = covariance_estimates(data, beta0)
    b = np.array([[1.0, beta0], [0.0, 1.0]])
    np.testing.assert_allclose(b @ est @ b.T, data.moments.omega, atol=1e-12)
    binv = np.array([[1.0, -beta0], [0.0, 1.0]])
    np.testing.assert_allclose(est, binv @ data.moments.omega @ binv.T, atol=1e-10)


def test_covariance_estimates_spd():
    data = generate(DGPConfig(n=150, p=2, beta_star=1.0, gamma_star=0.3,
                              sigma_star=np.array([[1.0, -0.5], [-0.5, 2.0]]), seed=10))
    est = covariance_estimates(data, 0.4)
    for mat in (data.moments.omega, est):
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
        entries[i] = (est[0, 0], est[0, 1], est[1, 1])
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
    comps = clr_components(data, beta0)
    return np.array([
        f_statistic(data),
        float(np.linalg.norm(require_prepared(data).s)),
        tsls_estimate(data),
        tsls_stat(data, beta0, est).statistic,
        ar_stat(data, beta0).statistic,
        comps.q_u,
        comps.q_ur,
        comps.q_r,
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


@pytest.mark.parametrize("s", [1e-9, 1e-8, 1e8])
def test_statistics_invariant_to_instrument_units(s):
    # Z -> sZ is the recombination A = sI: the rank check on Z'Z is
    # relative, so no absolute floor may touch its Cholesky factor
    data = generate(dgp_from_r(0.3, 0.5, n=250, p=3, seed=1))
    scaled = prepare(IVDataset(Y=data.Y, D=data.D, Z=s * data.Z))
    np.testing.assert_allclose(_statistics(scaled, 1.0), _statistics(data, 1.0), rtol=1e-8, atol=1e-10)


def _tsls_pair(data, beta0):
    return tsls_estimate(data), tsls_stat(data, beta0, covariance_estimates(data, beta0)).statistic


@given(
    log_a=st.floats(-6.0, 12.0),
    sign=st.sampled_from([-1.0, 1.0]),
    shift=st.floats(-3e6, 3e6),
    beta0=st.floats(-2.0, 4.0),
)
def test_tsls_equivariant_under_outcome_maps(log_a, sign, shift, beta0):
    # Y -> aY + bD: beta_hat -> a beta_hat + b and T(a beta0 + b) = sign(a) T(beta0).
    # b = shift * |a| up to 3e6 |a|: Sigma_hat(beta0) is read off the
    # residual factor B as (B_Y - beta0 B_D, B_D), so bD outweighing aY
    # costs no digits beyond the rounding of aY + bD itself
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


def _exact_sigma11(y, d, z, beta0):
    """Sigma_hat(beta0)_11 of the doubles given, in exact rationals: the
    residual of Y - D beta0 on [1 Z] from the normal equations, its sum
    of squares over n - p."""
    n, p = z.shape
    cols = [[Fraction(1)] * n] + [[Fraction(v) for v in z[:, j]] for j in range(p)]
    e = [Fraction(yi) - Fraction(beta0) * Fraction(di) for yi, di in zip(y, d)]
    # the augmented normal equations [A'A | A'e], solved by Gauss-Jordan
    rows = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] + [sum(a * b for a, b in zip(ci, e))] for ci in cols]
    for i in range(p + 1):
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for j in range(p + 1):
            if j != i:
                rows[j] = [vj - rows[j][i] * vi for vj, vi in zip(rows[j], rows[i])]
    coef = [row[-1] for row in rows]
    resid = [ei - sum(c * col[i] for c, col in zip(coef, cols)) for i, ei in enumerate(e)]
    return float(sum(r * r for r in resid) / (n - p))


def test_sigma_near_a_multiple_of_d_matches_an_exact_oracle():
    # Y = aY0 + bD with b / a = 3e6, at beta0 = a + b: Y - D beta0 is
    # 3e6 times smaller than Y.  Sigma_hat as a difference of cross-moments
    # lost about (3e6)^2 ulps (1.3e-2 relative); read off B it loses 3e6
    rng = np.random.default_rng(19)
    n, p, a, b = 120, 3, 1.0, 3e6
    z = rng.standard_normal((n, p))
    d = z @ np.array([0.6, -0.4, 0.3]) + rng.standard_normal(n)
    y = a * (0.8 * d + rng.standard_normal(n)) + b * d
    m = prepare(IVDataset(Y=y, D=d, Z=z))
    assert m.sigma(a + b)[0, 0] == pytest.approx(_exact_sigma11(y, d, z, a + b), rel=1e-8)


def test_sigma_refuses_a_null_that_overflows_it():
    # |B_Y - beta0 B_D|^2 is about 1e305 at 1e152, which keeps the
    # formula's bits, and overflows at 1e153; a batch names its first such null
    m = prepare(generate(dgp_from_r(0.3, 0.8, n=300, p=4, seed=3)))
    bd, by = m.b[:, 0], m.b[:, 1]
    e = by - 1e152 * bd
    ee, ed = np.einsum("i,i", e, e), np.einsum("i,i", e, bd)
    assert m.sigma(1e152).tobytes() == (np.array([[ee, ed], [ed, m.rss]]) / m.dof).tobytes()
    for far, named in ((1e153, "1e+153"), (-1e308, "-1e+308"), (np.array([1.0, 2e200, 1e200]), "2e+200")):
        with pytest.raises(CovarianceError, match=rf"overflows at the null beta0 = {re.escape(named)}$"):
            m.sigma(far)


def test_every_variance_divides_by_moments_dof(monkeypatch):
    # Moments.dof is the one home of the residual degrees of freedom:
    # with it moved to n - p - 7, every variance read off the moments
    # follows, each against its formula on the raw blocks
    ref = prepare(generate(dgp_from_r(0.3, 0.8, n=60, p=3, seed=5)))
    pen, ref_dof = default_lasso_penalty(ref, seed=2), ref.dof
    monkeypatch.setattr(Moments, "dof", property(lambda m: m.n - m.p - 7))
    m = Moments(n=ref.n, chol=ref.chol, s=ref.s, sy=ref.sy, b=ref.b)
    n, p, dof, beta0, c0 = m.n, m.p, m.n - m.p - 7, 0.7, 10.0
    bd, by = m.b[:, 0], m.b[:, 1]
    e, rss = by - beta0 * bd, bd @ bd

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    close(m.f, (m.s @ m.s / p) / (rss / dof))
    close(m.omega, np.array([[by @ by, by @ bd], [by @ bd, rss]]) / dof)
    close(m.sigma(beta0), np.array([[e @ e, e @ bd], [e @ bd, rss]]) / dof)
    close(m.det_omega, (np.linalg.det(m.b) / dof) ** 2)
    close(penalty_lambda(m, c0), np.sqrt(c0 * p / dof * rss))
    one = m.select([0])
    close(default_scale(one), 0.5 * np.sqrt(n / (n - 1)) * np.sqrt(one.rss / (n - 1 - 7)))
    close(default_lasso_penalty(m, seed=2), pen * np.sqrt(ref_dof / dof))
    close(default_lasso_scale(m), 0.5 * np.sqrt(rss / dof) * np.sqrt(np.mean(np.diagonal(m.chol @ m.chol.T))))
    pe = m.sy - beta0 * m.s
    stat = (pe @ pe / p) / (e @ e / dof)
    ar = ar_stat(m, beta0)
    close(ar.statistic, stat)
    close(ar.naive_pvalue, special.fdtrc(p, dof, stat))


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
def test_batched_moments_rows_match_single_datasets(moments_of, seed, beta0):
    # row i of a batched Moments gives what the dataset's own path gives
    config = dgp_from_r(0.3, 0.5, n=120, p=3, seed=seed)
    z, y, d = _draw_batch(config, 3, np.random.default_rng(seed))
    batch = moments_of(z, y, d)
    assert batch.omega.shape == (3, 2, 2)  # cached on the batch, so rows carry cached rows
    for i in range(3):
        data = prepare(IVDataset(Y=y[i], D=d[i], Z=z[i]))
        row = _statistics(batch[i], beta0)
        np.testing.assert_allclose(row, _statistics(data, beta0), rtol=1e-9)
        assert default_scale(batch[i]) == pytest.approx(default_scale(data), rel=1e-9)
        assert penalty_lambda(batch[i], 10.0) == pytest.approx(penalty_lambda(data, 10.0), rel=1e-9)


def _rows(rng, p, kappa, scale=1.0, n=100):
    """(z, y, d): n rows whose Z'Z has eigenvalues scale * geomspace(1,
    kappa) in random order and random eigenvectors; Y and D load on Z."""
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    z = (u * np.sqrt(rng.permutation(scale * np.geomspace(1.0, kappa, p)))) @ v.T
    y, d = (u @ rng.standard_normal((p, 2)) + rng.standard_normal((n, 2))).T
    return z, y, d


def _root_statistics(z, y, d):
    """||S||^2, S_Y'S, F, beta_hat and Omega_hat from the cross-products
    and the symmetric (Z'Z)^(-1/2) of an eigendecomposition, an
    independent reference."""
    n, p = z.shape
    vals, vecs = np.linalg.eigh(z.T @ z)
    isqrt = (vecs / np.sqrt(vals)) @ vecs.T
    s, sy = isqrt @ (z.T @ d), isqrt @ (z.T @ y)
    s2 = s @ s
    omega = np.array([[y @ y - sy @ sy, y @ d - sy @ s], [y @ d - sy @ s, d @ d - s2]]) / (n - p)
    return s2, sy @ s, (s2 / p) / ((d @ d - s2) / (n - p)), (sy @ s) / s2, omega


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 12),
    log_kappa=st.floats(0.0, 8.0),
    log_scale=st.floats(-6.0, 6.0),
)
def test_cholesky_core_matches_the_symmetric_root(moments_of, seed, p, log_kappa, log_scale):
    # the R of [Z D Y] gives LL' = Z'Z to rounding, and every statistic
    # read from L^-1 Z'D equals the one read from (Z'Z)^(-1/2) Z'D: the
    # two differ by a rotation.  Rounding Z'Z by eps moves D'P_Z D by up
    # to kappa eps relative in the reference, so the tolerance grows with
    # kappa past 1e3
    rng = np.random.default_rng(seed)
    kappa = 10.0**log_kappa
    z, y, d = _rows(rng, p, kappa, 10.0**log_scale)
    m = moments_of(z, y, d)
    ztz = z.T @ z
    assert np.abs(m.chol @ m.chol.T - ztz).max() <= 1e-12 * np.abs(ztz).max()
    assert np.array_equal(m.chol, np.tril(m.chol)) and np.all(np.diagonal(m.chol) > 0)
    s2, sys, f, beta_hat, omega = _root_statistics(z, y, d)
    tol = 1e-15 * max(kappa, 1e3)
    for got, want in ((m.s2, s2), (m.sy @ m.s, sys), (m.f, f), (m.beta_hat, beta_hat)):
        assert got == pytest.approx(want, rel=tol, abs=tol * s2)
    np.testing.assert_allclose(m.omega, omega, rtol=0, atol=tol * np.abs(omega).max())


def _stacked(moments_of, rows):
    """One batched Moments from the rows of several datasets of one shape."""
    return moments_of(*(np.stack(arrays) for arrays in zip(*rows)))


def test_batch_row_is_the_single_dataset_bit_for_bit(moments_of):
    # a batch row's factor, whitened vectors and statistics cannot depend
    # on its batch-mates, whatever their conditioning and scale
    rng = np.random.default_rng(21)
    rows = [_rows(rng, 6, k, s) for k, s in ((1.5, 1.0), (1e6, 1e3), (1.2, 1e-4), (3.0, 7.0))]
    batch = _stacked(moments_of, rows)
    for i, row in enumerate(rows):
        one = moments_of(*row)
        for name in ("chol", "s", "sy", "b", "s2", "f", "beta_hat", "omega", "gamma_hat"):
            assert np.array_equal(getattr(batch[i], name), getattr(one, name)), name


def test_mixed_stack_with_a_collinear_row_names_its_columns(moments_of):
    rng = np.random.default_rng(22)
    rows = [_rows(rng, 4, *a) for a in ((1.3,), (2.0, 50.0), (1e8,))]
    assert np.array_equal(_stacked(moments_of, rows)[2].s, moments_of(*rows[2]).s)  # kappa 1e8 is full rank
    z, y, d = _rows(rng, 4, 1.0)
    z[:, 3] = z[:, 0] - z[:, 1]
    with pytest.raises(RankDeficiencyError) as info:
        _stacked(moments_of, [*rows, (z, y, d)])
    assert info.value.columns == ["z4"]
    z[:, 3] = rng.standard_normal(100)
    z[:, 2] = 0.0
    with pytest.raises(RankDeficiencyError) as info:
        _stacked(moments_of, [*rows, (z, y, d)])
    assert info.value.columns == ["z3"]


def test_bartlett_moments_match_the_full_cross_product():
    # the Bartlett path reads L = T_zz and L^-1 Z'D off T'M; the QR of
    # T'M, whose cross-product M'TT'M is that of the drawn rows, must
    # give the same statistics
    config = dgp_from_r(0.1, 0.8, n=500, p=7, seed=5)
    n, p, reps = config.n, config.p, 200
    mom = _draw_moments(config, reps, np.random.default_rng(8))
    rng = np.random.default_rng(8)  # the same draws, in the same order
    k = p + 2
    t = np.zeros((reps, k, k))
    below = np.tril_indices(k, -1)
    t[:, below[0], below[1]] = rng.standard_normal((reps, below[0].size))
    t[:, np.arange(k), np.arange(k)] = np.sqrt(rng.chisquare(n - 1 - np.arange(k), size=(reps, k)))
    chol = np.linalg.cholesky(config.sigma_star)
    mix = np.zeros((k, k))
    mix[:p, :p] = np.eye(p)
    mix[:p, p + 1] = config.gamma_star
    mix[p:, p + 1] = chol[1]
    mix[:, p] = config.beta_star * mix[:, p + 1]
    mix[p:, p] += chol[0]
    rows = np.swapaxes(t, -1, -2) @ mix  # columns Z, Y, D
    ref = Moments.of_factor(n, np.linalg.qr(rows[..., [*range(p), p + 1, p]], mode="r"))
    for name in ("f", "beta_hat", "omega", "rss", "dd", "ztz", "ztd"):
        np.testing.assert_allclose(getattr(mom, name), getattr(ref, name), rtol=1e-12, atol=0, err_msg=name)
    zty = [np.einsum("rij,rj->ri", m.chol, m.sy) for m in (mom, ref)]  # Z'Y = L S_Y
    np.testing.assert_allclose(*zty, rtol=1e-12, atol=0, err_msg="zty")
    np.testing.assert_allclose(mom.chol, ref.chol, rtol=0, atol=1e-12 * np.abs(ref.chol).max())


def test_screen_of_a_bench_batch_runs_no_eigendecomposition(monkeypatch):
    config = dgp_from_r(0.08, 0.8)
    rng = _generator(config.seed, 21)
    mom = _draw_moments(config, 1000, rng)
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    screen = _screen(mom, 10.0, rng)
    assert calls == []
    assert 0 < screen.passed.sum() < 1000


def test_s_norm_ties_to_projected_quadratic(prepared_rows):
    rng = np.random.default_rng(13)
    raw = IVDataset(Y=rng.standard_normal(60), D=rng.standard_normal(60), Z=rng.standard_normal((60, 5)))
    s, rows = prepare(raw).s, prepared_rows(raw)
    coef = np.linalg.lstsq(rows.Z, rows.D, rcond=None)[0]
    direct = float(rows.D @ (rows.Z @ coef))
    assert abs(float(s @ s) - direct) < 1e-8 * max(direct, 1.0)


def test_standard_error_matches_quadratic_forms(prepared_rows):
    # recompute from raw arrays: sqrt of Sigma_hat_11 at beta_hat over D'P_Z D
    rng = np.random.default_rng(14)
    z = rng.standard_normal((80, 3))
    d = z @ np.array([0.6, 0.2, -0.1]) + rng.standard_normal(80)
    y = 0.8 * d + rng.standard_normal(80)
    data = prepare(IVDataset(Y=y, D=d, Z=z))

    rows = prepared_rows(IVDataset(Y=y, D=d, Z=z))
    zc, yc, dc = rows.Z, rows.Y, rows.D
    pz = zc @ np.linalg.solve(zc.T @ zc, zc.T)
    dpd = dc @ pz @ dc
    beta_hat = (dc @ pz @ yc) / dpd
    resid = yc - beta_hat * dc
    mz = np.eye(80) - pz
    sigma11 = resid @ mz @ resid / (80 - 3)
    expected = np.sqrt(sigma11 / dpd)

    assert tsls_standard_error(data) == pytest.approx(expected, rel=1e-10)
    assert tsls_estimate(data) == pytest.approx(beta_hat, rel=1e-10)
