"""End-to-end checks of the statistical guarantees the library makes.

One test per guarantee, each printing a single PASS/FAIL line with the
realized numbers (run with -s to see the lines for passing tests too).
Everything is seeded, so reruns are bit-identical; the Monte Carlo
margins below were chosen against independent calculations, not against
the code under test.  The two dataset regressions need user-supplied
CSV extracts under data/ and skip when those are absent; the README
documents the expected layout.

This is the slow end of the suite: under a minute total, dominated by
the weak-branch study, whose CLR intervals are unbounded.
"""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from ivselect.cli import AnalysisConfig, ingest
from ivselect.clr import QuadratureConfig, clr_conditional_inference, clr_tail, k4_constant
from ivselect.model import covariance_estimates, tsls_estimate, tsls_standard_error
from ivselect.pretest import RandomizationLaw, f_statistic, run_pretest, solve_randomized
from ivselect.sampler import SamplerConfig, _pooled_pvalues, build_law_tsls, sample_paths
from ivselect.simulate import (
    DGPConfig,
    ExperimentGrid,
    coverage_experiment,
    dgp_from_r,
    generate,
    lasso_uniformity_experiment,
    rejection_oracle,
    uniformity_experiment,
)

_DATA = Path(__file__).resolve().parents[1] / "data"


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


class _ZeroDraw:
    """Randomization stub whose draw is identically zero."""

    scale = 1.0
    seed = 0

    def draw(self, p):
        return np.zeros(p)


def test_screen_micro_checks():
    # 1a: the reported minimizer satisfies the program's stationarity
    # condition v - (S + omega) + lam * v/||v|| = 0 whenever it passes,
    # and ||S + omega|| <= lam whenever it does not.
    rng = np.random.Generator(np.random.Philox(12345))
    worst_kkt = 0.0
    worst_sub = -math.inf
    for i in range(10_000):
        p = int(rng.integers(2, 11))
        s = rng.normal(0.0, rng.uniform(0.5, 4.0), size=p)
        lam = float(rng.uniform(0.0, 2.0) * np.linalg.norm(s)) if rng.random() < 0.8 else 0.0
        law = RandomizationLaw(scale=float(rng.uniform(0.1, 2.0)), seed=int(i))
        out = solve_randomized(s, lam, law, c0=10.0)
        w = s + out.omega
        if out.passed:
            v = out.v_hat
            res = v - w + lam * v / np.linalg.norm(v)
            worst_kkt = max(worst_kkt, float(np.linalg.norm(res)))
        else:
            worst_sub = max(worst_sub, float(np.linalg.norm(w)) - lam)

    # 1b: with omega = 0 the randomized program reduces to the F-test,
    # exactly, away from the tie F = C0.
    rng = np.random.Generator(np.random.Philox(999))
    mismatches = 0
    for i in range(10_000):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(p + 2, 400))
        rss = float(rng.uniform(0.5, 50.0))
        c0 = float(rng.uniform(0.5, 20.0))
        lam = math.sqrt(c0 * (p / (n - p)) * rss)
        s = rng.normal(0.0, 1.0, size=p) * rng.uniform(0.2, 3.0)
        f = (float(s @ s) / p) / (rss / (n - p))
        if abs(f - c0) <= 1e-9 * max(f, c0):
            continue
        out = solve_randomized(s, lam, _ZeroDraw(), c0=c0, f_stat=f)
        mismatches += (f >= c0) != out.passed

    # 1c: the angular weight normalizer against direct quadrature
    worst_k4 = 0.0
    for p in range(2, 11):
        val, _ = integrate.quad(
            lambda th: math.cos(th) ** (p - 2), -math.pi / 2, math.pi / 2
        )
        worst_k4 = max(worst_k4, abs(k4_constant(p) * val - 1.0))

    ok = worst_kkt < 1e-8 and worst_sub <= 0.0 and mismatches == 0 and worst_k4 < 1e-8
    _verdict(
        "screen micro-checks",
        ok,
        f"max KKT residual {worst_kkt:.2e}, max slack of non-passes {worst_sub:.2e}, "
        f"{mismatches} threshold mismatches, max weight-normalizer error {worst_k4:.2e}",
    )


def test_sampler_matches_rejection_oracle():
    # One fixed dataset; the quadrature gives the CDF of t under the
    # conditional law at the observed (u, O), while the oracle
    # re-simulates the world on the same instruments and keeps passing
    # draws landing in a small neighborhood of that conditioning event.
    config = dgp_from_r(0.5, 0.5, n=200, p=3, seed=7)
    data = generate(config)
    pre = run_pretest(data, 10.0, seed=3)
    assert pre.passed
    est = covariance_estimates(data, 1.0)
    law = build_law_tsls(data, 1.0, pre, est)

    def cdf(ts):
        return _pooled_pvalues(replace(law, t_obs=np.asarray(ts, dtype=float))).lower

    kept = rejection_oracle(
        config,
        1.0,
        10.0,
        RandomizationLaw(scale=pre.scale, seed=pre.seed),
        400_000,
        z_fixed=data.Z,
        u_ref=pre.u,
        o_ref=law.o,
        u_tol=0.2,
        o_tol=0.5,
        min_retained=500,
    )
    ks = stats.kstest(kept, cdf).statistic
    ok = ks < 0.08 and kept.size >= 500
    _verdict(
        "quadrature vs rejection oracle",
        ok,
        f"KS distance {ks:.4f} (budget 0.08), {kept.size} retained oracle draws",
    )


def test_conditional_pivot_uniformity():
    # Null replications in the ten-instrument benchmark design.  Where
    # the screen passes often, conditional p-values must be uniform; at
    # r = 0.08 the plug-in law is known to drift, so the KS test must
    # reject there (the screen passes ~12% of the time, hence the larger
    # replication count to get a comparable number of passing draws).
    details = []
    ok = True
    for r, reps, cseed in [(0.3, 500, 201), (0.5, 500, 202), (1.0, 500, 203)]:
        res = uniformity_experiment(dgp_from_r(r, 0.8, seed=cseed), 10.0, reps)
        ok = ok and res.ks_pvalue > 0.01
        details.append(f"r={r}: KS p {res.ks_pvalue:.3f}")
    res = uniformity_experiment(dgp_from_r(0.08, 0.8, seed=204), 10.0, 2400)
    m = res.pvalue_samples.size
    ok = ok and m >= 200 and res.ks_pvalue < 0.01
    details.append(f"r=0.08: m={m}, KS p {res.ks_pvalue:.1e} (must reject)")
    _verdict("conditional pivot uniformity", ok, "; ".join(details))


def test_conditional_pivot_drift_detected_at_9600_reps():
    # The r = 0.08 leg above has about 50-65% power at 2400 replications.
    # Four times as many replications leave about 1100 passing draws, and
    # the drift is then plain: seeds 300-319 all rejected with KS p at most
    # 2.4e-4.  Seed 205 is pre-registered, not picked from those.
    res = uniformity_experiment(dgp_from_r(0.08, 0.8, seed=205), 10.0, 9600)
    m = res.pvalue_samples.size
    _verdict(
        "conditional pivot drift at 9600 replications",
        m >= 1000 and res.ks_pvalue < 0.01,
        f"r=0.08: m={m}, KS p {res.ks_pvalue:.1e} (must reject)",
    )


def test_coverage_gap_under_weak_instruments():
    # Among screen survivors at r = 0.08 the naive intervals collapse
    # while the conditional ones stay near nominal.  At this design the
    # conditional coverage sits right at the 0.90 line, so a small run
    # answers with a coin flip; replications are pooled over eight
    # pre-registered batches until the per-cell standard error is ~0.003.
    details = []
    ok = True
    for s12 in (0.8, 0.9):
        m_total = cond_hits = naive_hits = 0
        for j in range(8):
            res = uniformity_experiment(dgp_from_r(0.08, s12, seed=204 + j), 10.0, 9600)
            m = res.pvalue_samples.size
            m_total += m
            cond_hits += round(res.conditional_coverage * m)
            naive_hits += round(res.naive_coverage * m)
        cond, naive = cond_hits / m_total, naive_hits / m_total
        cell_ok = m_total >= 200 and cond >= 0.90 and naive <= cond - 0.10
        ok = ok and cell_ok
        details.append(
            f"s12={s12}: m={m_total}, conditional {cond:.4f} (need >= 0.90), "
            f"naive {naive:.4f} (gap {cond - naive:.2f}, need >= 0.10)"
        )
    _verdict("coverage gap under weak instruments", ok, "; ".join(details))


def test_clr_branch_insensitive_to_screen():
    # Failing the strength screen carries almost no information about
    # the effect, so conditioning on it barely moves the CLR answer:
    # first in coverage across failing replications, then pointwise on
    # five datasets too weak to ever pass.
    grid = ExperimentGrid([0.08], [0.9], seed=12)
    cells = coverage_experiment(grid, 10.0, 0.05, 250, branch="clr_fail")
    res = cells[0].result
    n_fail = res.pvalue_samples.size
    cov_gap = abs(res.conditional_coverage - res.naive_coverage)
    ok = n_fail >= 200 and cov_gap < 0.03

    worst_pt = 0.0
    for seed in (90, 91, 92, 93, 94):
        data = generate(dgp_from_r(0.05, 0.5, n=200, p=3, seed=seed))
        assert f_statistic(data) < 3.0
        rep = clr_conditional_inference(data, 1.0, c0=10.0).to_dict()
        worst_pt = max(worst_pt, abs(rep["conditional_pvalue"] - rep["naive_pvalue"]))
    ok = ok and worst_pt < 0.005
    _verdict(
        "weak-branch insensitivity to the screen",
        ok,
        f"coverage |conditional - naive| {cov_gap:.4f} over {n_fail} failing reps "
        f"(budget 0.03); max pointwise p gap {worst_pt:.1e} at F < 3 (budget 0.005)",
    )


def test_clr_tail_matches_monte_carlo():
    # The quadrature tail against a million-draw simulation of the
    # limiting law: draw U ~ N(0, I_p), set Q_U = ||U||^2 and
    # Q_UR = U_1 sqrt(Q_R), and count how often the statistic clears t.
    details = []
    ok = True
    for (p, q_r, t), seed in zip([(2, 1.0, 1.0), (5, 3.0, 2.0), (10, 8.0, 5.0)], [60, 61, 62]):
        rng = np.random.Generator(np.random.Philox(seed))
        u = rng.standard_normal((1_000_000, p))
        q_u = np.einsum("ij,ij->i", u, u)
        q_ur = u[:, 0] * math.sqrt(q_r)
        disc = (q_u + q_r) ** 2 - 4.0 * (q_u * q_r - q_ur**2)
        lr = 0.5 * (q_u - q_r + np.sqrt(np.maximum(disc, 0.0)))
        p_mc = float(np.mean(lr >= t))
        p_quad = clr_tail(t, q_r, p)
        p_double = clr_tail(t, q_r, p, quad=QuadratureConfig(panels=4096))
        ok = ok and abs(p_quad - p_mc) < 0.003 and abs(p_quad - p_double) < 1e-6
        details.append(
            f"(p={p}, q_R={q_r}, t={t}): |quad - MC| {abs(p_quad - p_mc):.1e}, "
            f"panel doubling {abs(p_quad - p_double):.1e}"
        )
    _verdict("tail quadrature vs Monte Carlo", ok, "; ".join(details))


@pytest.mark.skipif(
    not (_DATA / "card.csv").exists(),
    reason="user-supplied dataset data/card.csv not present (see README)",
)
def test_card_dataset_regression():
    # College-proximity wage data, one instrument, covariates residualized
    # out by the loader.  Point estimates are pinned to their published
    # values; the conditional p-value depends on the realized screen noise,
    # so it is checked across 20 independent randomization seeds.
    data = ingest(str(_DATA / "card.csv"), AnalysisConfig())
    beta = tsls_estimate(data)
    se = tsls_standard_error(data)
    f = f_statistic(data)
    p_naive = 2.0 * stats.norm.sf(abs(beta / se))
    static_ok = (
        data.n == 3010
        and abs(beta - 0.132) < 5e-4
        and abs(se - 0.055) < 5e-4
        and abs(f - 13.32) < 5e-3
        and abs(p_naive - 0.016) < 5e-4
    )
    est = covariance_estimates(data, 0.0)
    clears = 0
    for k in range(20):
        pre = run_pretest(data, 10.0, seed=k)
        if not pre.passed:
            continue
        law = build_law_tsls(data, 0.0, pre, est)
        t_paths, _ = sample_paths(
            law, SamplerConfig(n_samples=6000, burn_in=1500, chains=2, seed=1000 + k)
        )
        draws = t_paths.ravel()
        upper = float(np.mean(draws >= law.t_obs))
        lower = float(np.mean(draws <= law.t_obs))
        clears += min(1.0, 2.0 * min(upper, lower)) > 0.05
    ok = static_ok and clears >= 18
    _verdict(
        "college-proximity data regression",
        ok,
        f"n={data.n}, TSLS {beta:.4f} (SE {se:.4f}), F {f:.3f}, naive p {p_naive:.4f}; "
        f"conditional p > 0.05 in {clears}/20 randomization seeds (need >= 18)",
    )


@pytest.mark.skipif(
    not ((_DATA / "angrist_v.csv").exists() and (_DATA / "angrist_vi.csv").exists()),
    reason="user-supplied datasets data/angrist_v.csv and data/angrist_vi.csv not present (see README)",
)
def test_quarter_of_birth_dataset_regressions():
    # Quarter-of-birth wage extracts where the instruments are weak and
    # the analysis lands on the likelihood-ratio branch; conditioning on
    # the failed screen must not move the answer.
    details = []
    ok = True
    for fname, expected_p, expected_f in (
        ("angrist_v.csv", 0.4254, 1.5071),
        ("angrist_vi.csv", 0.0182, None),
    ):
        data = ingest(str(_DATA / fname), AnalysisConfig())
        rep = clr_conditional_inference(data, 0.0, c0=10.0).to_dict()
        pc, pn = rep["conditional_pvalue"], rep["naive_pvalue"]
        file_ok = abs(pn - expected_p) < 0.003 and abs(pc - pn) < 0.001
        if expected_f is not None:
            file_ok = file_ok and abs(f_statistic(data) - expected_f) < 1e-3
        ok = ok and file_ok
        details.append(f"{fname}: naive p {pn:.4f} (expect {expected_p}), |cond - naive| {abs(pc - pn):.1e}")
    _verdict("quarter-of-birth data regressions", ok, "; ".join(details))


def test_lasso_pivot_uniformity():
    # Null replications where an l1 screen picks the instrument set:
    # with one strong and four irrelevant instruments the conditional
    # p-values among non-empty selections must stay uniform.
    config = DGPConfig(
        n=500,
        p=5,
        beta_star=1.0,
        gamma_star=np.array([0.4, 0.0, 0.0, 0.0, 0.0]),
        sigma_star=np.array([[1.0, 0.5], [0.5, 1.0]]),
        seed=401,
    )
    res = lasso_uniformity_experiment(
        config, 300, sampler=SamplerConfig(n_samples=4000, burn_in=1000, chains=2, seed=501)
    )
    m = res.pvalue_samples.size
    ok = m >= 250 and res.ks_pvalue > 0.01
    _verdict(
        "post-selection pivot uniformity",
        ok,
        f"KS p {res.ks_pvalue:.3f} over {m} selections (need > 0.01)",
    )
