"""First-stage F screen, its penalized reformulation, and the randomized prox."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivselect import (
    IVDataset,
    RandomizationLaw,
    clr_conditional_inference,
    default_scale,
    dgp_from_r,
    f_statistic,
    generate,
    penalty_lambda,
    prepare,
    run_pretest,
    solve_randomized,
)


def _hand_rows():
    # Z = (-1, 0, 1), D = (-2, 1, 1): gamma_hat = 1.5, RSS = 1.5, F = 6
    z = np.array([[-1.0], [0.0], [1.0]])
    d = np.array([-2.0, 1.0, 1.0])
    return IVDataset(Y=d.copy(), D=d, Z=z)


def _hand_instance():
    return prepare(_hand_rows())


def _random_data(rng, n=60, p=3, strength=0.5):
    z = rng.standard_normal((n, p))
    d = z @ np.full(p, strength) + rng.standard_normal(n)
    y = d + rng.standard_normal(n)
    return prepare(IVDataset(Y=y, D=d, Z=z))


def test_f_statistic_hand_instance(prepared_rows):
    data = _hand_instance()
    rows = prepared_rows(_hand_rows())
    gamma = float(np.linalg.lstsq(rows.Z, rows.D, rcond=None)[0][0])
    assert gamma == pytest.approx(1.5, abs=1e-12)
    rss = float(np.sum((rows.D - rows.Z[:, 0] * gamma) ** 2))
    assert rss == pytest.approx(1.5, abs=1e-12)
    assert f_statistic(data) == pytest.approx(6.0, abs=1e-10)


def test_f_zero_when_treatment_orthogonal():
    rng = np.random.default_rng(20)
    z = rng.standard_normal((30, 2))
    z -= z.mean(axis=0)
    raw = rng.standard_normal(30)
    d = raw - z @ np.linalg.solve(z.T @ z, z.T @ raw)
    data = prepare(IVDataset(Y=rng.standard_normal(30), D=d, Z=z))
    assert f_statistic(data) == pytest.approx(0.0, abs=1e-12)


def test_penalty_zero_threshold():
    assert penalty_lambda(_hand_instance(), 0.0) == 0.0


def test_penalty_boundary_identity():
    # C0 = F makes lambda^2 = C0 * p * RSS / (n-p) = ||S||^2 exactly
    data = _hand_instance()
    lam = penalty_lambda(data, 6.0)
    assert lam**2 == pytest.approx(4.5, abs=1e-10)
    assert lam == pytest.approx(float(np.linalg.norm(data.s)), abs=1e-10)


@pytest.mark.parametrize("c0", [1.0, 5.0, 10.0, 25.0])
def test_threshold_equivalence_on_random_instances(c0):
    rng = np.random.default_rng(21)
    for _ in range(50):
        data = _random_data(rng, strength=rng.uniform(0.0, 0.6))
        f = f_statistic(data)
        lam = penalty_lambda(data, c0)
        s_norm = float(np.linalg.norm(data.s))
        assert (f >= c0) == (s_norm >= lam)


def test_prox_closed_form_hand_values():
    # arrange omega so the randomized point w = S + omega equals (3, 4)
    law = RandomizationLaw(scale=0.7, seed=123)
    omega = law.draw(2)
    s = np.array([3.0, 4.0]) - omega
    out = solve_randomized(s, 2.0, law)
    assert out.passed
    np.testing.assert_allclose(out.v_hat, [1.8, 2.4], atol=1e-12)
    assert out.d == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(out.u, [0.6, 0.8], atol=1e-12)
    np.testing.assert_allclose(out.v_hat, out.d * out.u, atol=1e-12)
    np.testing.assert_allclose(out.omega, omega)  # recorded draw replays bit-exactly


def test_prox_shrinks_to_zero_past_penalty():
    law = RandomizationLaw(scale=0.7, seed=123)
    omega = law.draw(2)
    s = np.array([3.0, 4.0]) - omega
    out = solve_randomized(s, 6.0, law)
    assert not out.passed
    np.testing.assert_allclose(out.v_hat, [0.0, 0.0])
    assert out.d == 0.0


def test_prox_unpenalized():
    law = RandomizationLaw(scale=0.5, seed=7)
    s = np.array([1.0, -2.0, 0.5])
    out = solve_randomized(s, 0.0, law)
    w = s + out.omega
    np.testing.assert_allclose(out.v_hat, w, atol=1e-12)
    assert out.d == pytest.approx(float(np.linalg.norm(w)), abs=1e-12)


def test_kkt_residual_on_random_instances():
    rng = np.random.default_rng(22)
    worst = 0.0
    for i in range(1000):
        p = int(rng.integers(1, 8))
        s = rng.standard_normal(p) * rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.0, 2.0)
        out = solve_randomized(s, lam, RandomizationLaw(scale=0.8, seed=i))
        if not out.passed:
            continue
        resid = (out.d + out.lam) * out.u - (s + out.omega)
        worst = max(worst, float(np.linalg.norm(resid)))
    assert worst < 1e-8


def test_objective_is_global_minimum_spot_check():
    rng = np.random.default_rng(23)
    law = RandomizationLaw(scale=0.6, seed=40)
    s = np.array([0.8, -1.4, 2.0])
    lam = 1.2
    out = solve_randomized(s, lam, law)

    def objective(v):
        return 0.5 * np.sum((v - s) ** 2) + lam * np.linalg.norm(v) - out.omega @ v

    base = objective(out.v_hat)
    for scale in (1e-4, 1e-2, 1.0):
        eps = rng.standard_normal((10_000, 3)) * scale
        vals = 0.5 * np.sum((out.v_hat + eps - s) ** 2, axis=1)
        vals += lam * np.linalg.norm(out.v_hat + eps, axis=1)
        vals -= (out.v_hat + eps) @ out.omega
        assert np.all(vals >= base - 1e-12)


def test_zero_randomization_equals_f_test():
    # vanishing omega: passing the randomized program is the F >= C0 event
    rng = np.random.default_rng(24)
    c0 = 10.0
    agree = 0
    for i in range(300):
        data = _random_data(rng, n=40, p=2, strength=rng.uniform(0.0, 0.8))
        out = run_pretest(data, c0=c0, scale=1e-300, seed=i)
        agree += out.passed == (f_statistic(data) >= c0)
    assert agree == 300


def test_run_pretest_records_inputs_and_unit_direction():
    rng = np.random.default_rng(25)
    data = _random_data(rng, strength=0.8)
    out = run_pretest(data, c0=10.0, seed=5)
    assert out.f_stat == pytest.approx(f_statistic(data))
    assert out.lam == pytest.approx(penalty_lambda(data, 10.0))
    assert out.seed == 5
    assert out.scale == pytest.approx(default_scale(data))
    if out.passed:
        assert abs(float(out.u @ out.u) - 1.0) < 1e-12
        assert out.d > 0
    rerun = run_pretest(data, c0=10.0, seed=5)
    np.testing.assert_array_equal(rerun.omega, out.omega)


def test_default_scale_formula():
    rng = np.random.default_rng(26)
    data = _random_data(rng, n=80, p=4, strength=0.5)
    n = data.n
    expected = 0.5 * np.sqrt(n / (n - 1)) * float(np.std(data.s))
    assert default_scale(data) == pytest.approx(expected, rel=1e-12)


def test_default_scale_single_instrument_fallback():
    # std of a single S coordinate is zero; the fallback keeps scale positive
    rng = np.random.default_rng(27)
    z = rng.standard_normal((50, 1))
    d = 0.6 * z[:, 0] + rng.standard_normal(50)
    data = prepare(IVDataset(Y=d + rng.standard_normal(50), D=d, Z=z))
    assert default_scale(data) > 0


@given(seed=st.integers(0, 2**63 - 1), scale=st.floats(1e-3, 1e3), p=st.integers(1, 12))
def test_randomization_draws_philox_of_its_seed(seed, scale, p):
    # the stream every report was drawn from, Philox(seed), for every seed
    # below 2^63; the seed 2^63 lower keys it too
    want = np.random.Generator(np.random.Philox(seed)).normal(0.0, scale, p)
    assert RandomizationLaw(scale, seed).draw(p).tobytes() == want.tobytes()
    assert RandomizationLaw(scale, seed - 2**63).draw(p).tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [0.3, 0.03], ids=["passes", "fails"])
@pytest.mark.parametrize("c0", [float("nan"), float("inf")])
def test_non_finite_threshold_is_refused(r, c0):
    # C0 becomes lambda: a NaN or infinite one is refused by name, on a
    # screen that passes and on one whose CLR branch would answer
    data = generate(dgp_from_r(r, 0.8, n=300, p=4, seed=3))
    for run in (lambda: penalty_lambda(data, c0), lambda: run_pretest(data, c0=c0),
                lambda: clr_conditional_inference(data, 1.0, c0=c0)):
        with pytest.raises(ValueError, match="threshold C0 must be finite and nonnegative"):
            run()


@pytest.mark.parametrize("r", [0.3, 0.03], ids=["passes", "fails"])
def test_randomization_scale_past_the_float_range_is_refused(r):
    # an infinite scale is refused by RandomizationLaw, and one at which
    # ||S + omega|| overflows by the prox, both naming the scale; a scale
    # just inside the range still screens to a unit direction
    data = generate(dgp_from_r(r, 0.8, n=300, p=4, seed=3))
    with pytest.raises(ValueError, match="randomization scale must be positive and finite, got inf"):
        run_pretest(data, scale=float("inf"))
    with pytest.raises(ValueError, match=r"randomization scale 1e\+155 is too large"):
        run_pretest(data, scale=1e155)
    out = run_pretest(data, scale=1e150)
    assert out.passed and abs(float(out.u @ out.u) - 1.0) < 1e-12
