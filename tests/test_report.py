"""Interval/report containers and p-value-curve inversion."""

import math

import numpy as np
import pytest

import ivselect.report
from ivselect import (
    DGPConfig,
    Interval,
    InferenceReport,
    RandomizationLaw,
    clr_conditional_inference,
    default_lasso_penalty,
    default_lasso_scale,
    dgp_from_r,
    generate,
    invert_ci,
    invert_pvalue_curve,
    lasso_conditional_inference,
    run_pretest,
    solve_randomized_lasso,
    tsls_estimate,
    tsls_standard_error,
)
from ivselect.cli import AnalysisConfig, analyze
from ivselect.report import plain


def test_interval_basics():
    iv = Interval(-1.0, 2.5)
    assert iv.contains(0.0) and iv.contains(-1.0) and iv.contains(2.5)
    assert not iv.contains(2.6)
    assert iv.width == pytest.approx(3.5)
    assert iv.as_dict() == {
        "lower": -1.0, "upper": 2.5,
        "lower_unbounded": False, "upper_unbounded": False,
    }


def test_interval_unbounded_serializes_null():
    iv = Interval(0.0, 0.0, lower_unbounded=True, upper_unbounded=True)
    assert iv.lower == -math.inf and iv.upper == math.inf
    d = iv.as_dict()
    assert d["lower"] is None and d["upper"] is None
    assert iv.contains(1e12)


def test_interval_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)


def test_report_validates_pvalues():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        InferenceReport(beta0=0.0, conditional_pvalue=1.4, naive_pvalue=0.5,
                        conditional_ci=iv, naive_ci=iv)
    rep = InferenceReport(beta0=0.0, conditional_pvalue=None, naive_pvalue=0.5,
                          conditional_ci=None, naive_ci=iv,
                          diagnostics={"branch": "naive_only"})
    doc = rep.to_dict()
    assert doc["conditional_pvalue"] is None
    assert doc["conditional_ci"] is None
    assert doc["diagnostics"]["branch"] == "naive_only"


def test_plain_converts_numpy_and_nonfinite():
    out = plain({
        "a": np.float64(1.5),
        "b": np.array([1, 2]),
        "c": float("inf"),
        "d": (np.int64(3), "x"),
    })
    assert out == {"a": 1.5, "b": [1, 2], "c": None, "d": [3, "x"]}
    assert isinstance(out["a"], float) and isinstance(out["b"][0], int)


def test_inversion_recovers_known_retention_set():
    # p(x) = max(0, 1 - |x - 1| / 2): retained set is |x-1| <= 2(1-alpha)
    alpha = 0.05
    fn = lambda xs: np.clip(1.0 - np.abs(np.asarray(xs) - 1.0) / 2.0, 0.0, 1.0)
    interval, xs, ps, info = invert_pvalue_curve(fn, 1.0, 0.5, alpha, n_points=101)
    spacing = np.diff(xs).max()
    assert interval.lower == pytest.approx(1.0 - 1.9, abs=2 * spacing)
    assert interval.upper == pytest.approx(1.0 + 1.9, abs=2 * spacing)
    assert info["expansion_rounds"] >= 1
    assert not info["degenerate"]
    assert info["ends"] == {"lower": "crossing", "upper": "crossing"}


def test_inversion_flags_unbounded_sides():
    fn = lambda xs: np.full(np.shape(xs), 0.5)
    interval, _, _, info = invert_pvalue_curve(fn, 0.0, 1.0, 0.05, n_points=21)
    assert interval.lower_unbounded and interval.upper_unbounded
    assert info["ends"] == {"lower": "unbounded", "upper": "unbounded"}


def test_inversion_labels_an_end_cut_by_unanswerable_nulls():
    # retained from -1 on; past 1.25 the curve cannot be evaluated (NaN)
    def fn(xs):
        xs = np.asarray(xs)
        return np.where(xs > 1.25, np.nan, np.where(xs >= -1.0, 0.5, 0.0))

    interval, _, _, info = invert_pvalue_curve(fn, 0.0, 2.0, 0.05, n_points=41)
    assert interval.lower == pytest.approx(-1.0) and interval.upper == pytest.approx(1.2)
    assert info["ends"] == {"lower": "crossing", "upper": "underflow"}


def test_inversion_alpha_one_collapses_to_peak():
    fn = lambda xs: np.exp(-0.5 * (np.asarray(xs) - 0.7) ** 2)
    interval, _, _, _ = invert_pvalue_curve(fn, 0.0, 3.0, 1.0, n_points=301)
    assert interval.width == pytest.approx(0.0, abs=1e-12)
    assert interval.lower == pytest.approx(0.7, abs=0.03)


def test_inversion_empty_retention_degenerates_to_argmax():
    # curve never reaches alpha: the hull collapses to the best point
    fn = lambda xs: 0.9 * np.exp(-0.5 * (np.asarray(xs) - 0.7) ** 2)
    interval, _, _, info = invert_pvalue_curve(fn, 0.0, 3.0, 1.0, n_points=301)
    assert info["degenerate"]
    assert interval.width == 0.0
    assert interval.lower == pytest.approx(0.7, abs=0.03)


def test_inversion_validates_inputs():
    fn = lambda xs: np.full(np.shape(xs), 0.5)
    with pytest.raises(ValueError):
        invert_pvalue_curve(fn, 0.0, -1.0, 0.05)
    with pytest.raises(ValueError):
        invert_pvalue_curve(fn, 0.0, 1.0, 1.5)


def test_every_inversion_starts_on_the_estimate_grid(monkeypatch):
    # every branch, naive or conditional, starts its CI grid at n_points
    # over beta_hat +- 8 SE of the dataset it tests: the whole dataset, or
    # the selected instruments' for the Lasso
    starts = []
    real = ivselect.report.invert_pvalue_curve

    def spy(pvalue_fn, center, halfwidth, alpha, n_points):
        starts.append((center, halfwidth, n_points))
        return real(pvalue_fn, center, halfwidth, alpha, n_points)

    monkeypatch.setattr(ivselect.report, "invert_pvalue_curve", spy)

    def grid_of(data, n_points=31):
        return (tsls_estimate(data), 8.0 * tsls_standard_error(data), n_points)

    strong = generate(dgp_from_r(0.3, 0.5, n=300, p=4, seed=7))
    weak = generate(dgp_from_r(0.05, 0.5, n=300, p=3, seed=8))
    lasso_data = generate(DGPConfig(
        n=200, p=4, beta_star=1.0, gamma_star=np.array([0.9, 0.6, 0.05, 0.0]),
        sigma_star=np.array([[1.0, 0.5], [0.5, 1.0]]), seed=67,
    ))
    sel = solve_randomized_lasso(
        lasso_data,
        default_lasso_penalty(lasso_data, seed=69),
        RandomizationLaw(scale=default_lasso_scale(lasso_data), seed=68),
    )
    assert 1 <= len(sel.support_E) < lasso_data.p
    cases = [
        ("tsls", lambda: invert_ci(strong, run_pretest(strong, c0=10.0, seed=1), n_points=31),
         [grid_of(strong)]),
        ("clr conditional and naive", lambda: clr_conditional_inference(weak, 0.0, n_points=31),
         [grid_of(weak)] * 2),
        ("lasso", lambda: lasso_conditional_inference(lasso_data, 1.0, sel, n_points=31),
         [grid_of(lasso_data.moments.select(sel.support_E))]),
        ("naive-only ar", lambda: analyze(weak, AnalysisConfig(test="ar", ci_grid={"points": 31})),
         [grid_of(weak)]),
        ("naive-only clr", lambda: analyze(
            strong, AnalysisConfig(test="clr", allow_mismatch=True, ci_grid={"points": 31})
        ), [grid_of(strong)]),
    ]
    for name, run, want in cases:
        starts.clear()
        run()
        assert starts == want, name
