"""Each answer check accepts the program's answer and rejects a perturbed one."""

import copy

import numpy as np
import pytest

import checks
import run
from ivselect.clr import QuadratureConfig, clr_conditional_inference, clr_tail, truncation_from_estimates
from ivselect.lasso import default_lasso_penalty, default_lasso_scale, solve_randomized_lasso
from ivselect.model import covariance_estimates
from ivselect.pretest import RandomizationLaw, run_pretest
from ivselect.sampler import SamplerConfig, build_law_tsls, sample_paths, wald_interval
from ivselect.simulate import dgp_from_r, generate
from ivselect.teststats import tsls_stat


def _arrays(data):
    return checks.prepared(data.Y, data.D, data.Z)


def _naive_report(data, beta0):
    sub_p = tsls_stat(data, beta0, covariance_estimates(data, beta0)).naive_pvalue
    return {"naive_pvalue": sub_p, "naive_ci": wald_interval(data, 0.05).as_dict()}


def test_naive_tsls_check():
    data = generate(dgp_from_r(0.3, 0.8, n=400, p=4, seed=3))
    rep = _naive_report(data, 1.0)
    assert checks.check_naive_tsls(rep, *_arrays(data), 1.0, 0.05) == []
    bad = dict(rep, naive_pvalue=rep["naive_pvalue"] * (1 + 1e-6))
    assert checks.check_naive_tsls(bad, *_arrays(data), 1.0, 0.05)
    bad = copy.deepcopy(rep)
    bad["naive_ci"]["upper"] += 1e-6
    assert checks.check_naive_tsls(bad, *_arrays(data), 1.0, 0.05)


def _passed_law(seed=5):
    data = generate(dgp_from_r(0.15, 0.8, n=500, p=4, seed=seed))
    for rseed in range(100):
        screen = run_pretest(data, c0=10.0, seed=rseed)
        if screen.passed:
            return build_law_tsls(data, 1.0, screen, covariance_estimates(data, 1.0))
    raise AssertionError("no passing screen")


def test_passed_screen_tails_match_long_gibbs_run():
    law = _passed_law()
    up, lo = checks.passed_screen_tails(
        law.slope, law.u, law.offset, law.lam, law.gaussian_scale, law.jacobian_exponent, law.t_obs
    )
    assert up + lo == pytest.approx(1.0, abs=1e-9)
    t, _ = sample_paths(law, SamplerConfig(n_samples=20000, burn_in=1000, chains=4, seed=2))
    assert abs(np.mean(t >= law.t_obs) - up) < 0.02


def test_conditional_tsls_check():
    law = _passed_law()
    up, lo = checks.passed_screen_tails(
        law.slope, law.u, law.offset, law.lam, law.gaussian_scale, law.jacobian_exponent, law.t_obs
    )
    exact = min(1.0, 2.0 * min(up, lo))
    assert checks.check_conditional_tsls({"conditional_pvalue": exact + 0.01}, law, 8000, 2000.0) == []
    assert checks.check_conditional_tsls({"conditional_pvalue": exact + 0.15}, law, 8000, 2000.0)
    # a tiny reported ESS cannot widen the tolerance past that of n_draws / 25
    assert checks.check_conditional_tsls({"conditional_pvalue": exact - 0.45}, law, 8000, 1.0)


@pytest.mark.parametrize("p, q_r, t", [(3, 2.0, 1.5), (10, 8.0, 5.0), (5, 0.5, 9.0)])
def test_clr_tail_quad_matches_program_quadrature(p, q_r, t):
    assert checks.clr_tail_quad(t, q_r, p) == pytest.approx(clr_tail(t, q_r, p), abs=2e-7)
    omega = np.array([[1.3, 0.6], [0.6, 1.0]])
    trunc = truncation_from_estimates(omega, 1.0, 3.0 + q_r, q_r, p)
    mine = checks.clr_tail_quad(t, q_r, p, (trunc.d0, trunc.d1, trunc.d2), trunc.lambda_sq)
    assert mine == pytest.approx(clr_tail(t, q_r, p, trunc, QuadratureConfig(tol=1e-9)), abs=2e-7)


def _weak_case():
    data = generate(dgp_from_r(0.1, 0.8, n=500, p=4, seed=8))
    return data, clr_conditional_inference(data, 1.0, c0=10.0, alpha=0.05).to_dict()


def test_clr_check():
    data, rep = _weak_case()
    args = (*_arrays(data), 1.0, 0.05, 10.0)
    assert checks.check_clr(rep, *args) == []
    bad = dict(rep, conditional_pvalue=rep["conditional_pvalue"] + 1e-5)
    assert checks.check_clr(bad, *args)
    bad = dict(rep, naive_pvalue=rep["naive_pvalue"] - 1e-5)
    assert checks.check_clr(bad, *args)
    ref = checks.tsls_closed_form(*_arrays(data), 1.0, 0.05)
    step = 16.0 * ref["se"] / (rep["diagnostics"]["naive_grid"]["grid_size"] - 1)
    bad = copy.deepcopy(rep)
    bad["naive_ci"]["lower"] -= 5 * step  # a point the program excluded
    assert checks.check_clr(bad, *args)
    bad = copy.deepcopy(rep)
    bad["naive_ci"]["upper"] -= 5 * step  # stops short of retained points
    assert checks.check_clr(bad, *args)


def test_lasso_selection_check():
    gamma = np.zeros(10)
    gamma[:3] = 0.15
    from ivselect.simulate import DGPConfig

    data = generate(DGPConfig(n=1000, p=10, beta_star=1.0, gamma_star=gamma,
                              sigma_star=np.array([[1.0, 0.8], [0.8, 1.0]]), seed=4))
    lam = default_lasso_penalty(data, seed=1)
    sel = solve_randomized_lasso(data, lam, RandomizationLaw(default_lasso_scale(data), seed=2))
    assert sel.support_E
    _, d, z = _arrays(data)
    args = (z, d, sel.lambda_l, sel.omega)
    assert checks.check_lasso_selection(*args, sel.gamma_l, sel.subgradient_u) == []
    assert checks.check_lasso_selection(*args, sel.gamma_l * 1.01, sel.subgradient_u)
    u = sel.subgradient_u.copy()
    off = int(sel.off_support[0])
    u[off] = 0.5 * (u[off] + 2.0)  # inside (u, 1]: no longer the stationarity solution
    assert checks.check_lasso_selection(*args, sel.gamma_l, u)


def _study(m, cond, naive, reps=1000, alpha=0.05):
    hits = round(cond * m)
    pvals = np.sort(np.r_[np.linspace(0.0, alpha * 0.99, m - hits), np.linspace(alpha, 1.0, hits)])
    summary = {"passing_rate": m / reps, "reps": reps, "conditional_coverage": hits / m, "naive_coverage": naive}
    return summary, pvals


def test_coverage_check():
    good = [_study(115, 0.91, 0.4), _study(120, 0.9, 0.35)]
    assert checks.check_coverage(good, 0.05) == []
    assert checks.check_coverage([_study(115, 0.75, 0.4), _study(120, 0.78, 0.35)], 0.05)
    assert checks.check_coverage([_study(115, 0.91, 0.85), _study(120, 0.9, 0.85)], 0.05)
    summary, pvals = _study(115, 0.91, 0.4)
    assert checks.check_coverage([(summary, pvals[1:])], 0.05)
    assert checks.check_coverage([(dict(summary, conditional_coverage=0.95), pvals)], 0.05)


class _Fake:
    distinct = 2

    def __init__(self, problems=()):
        self.problems = list(problems)

    def check(self, i, text):
        return list(self.problems) if i == 1 else []

    def check_run(self, texts):
        return []


def _records(texts):
    return [{"job": j, "input": j % 2, "traced": False, "s": 1.0, "text": t, "ok": True} for j, t in enumerate(texts)]


def test_repeated_jobs_must_be_byte_identical():
    records = _records(["a", "b", "a", "b"])
    run.check_answers(_Fake(), records)
    assert all(r["ok"] for r in records)
    records = _records(["a", "b", "a", "b "])
    run.check_answers(_Fake(), records)
    assert [r["ok"] for r in records] == [True, False, True, False]


def test_failed_check_marks_every_job_of_that_input():
    records = _records(["a", "b", "a", "b"])
    run.check_answers(_Fake(["wrong"]), records)
    assert [r["ok"] for r in records] == [True, False, True, False]
