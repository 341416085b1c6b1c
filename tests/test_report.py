"""Interval/report containers and p-value-curve inversion."""

import math

import numpy as np
import pytest

from ivselect import Interval, InferenceReport, invert_pvalue_curve
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
