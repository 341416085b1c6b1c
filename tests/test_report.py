"""Interval/report containers and p-value-curve inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivselect.report
from ivselect import (
    DGPConfig,
    answer,
    Interval,
    InferenceReport,
    RandomizationLaw,
    clr_conditional_inference,
    default_lasso_penalty,
    default_lasso_scale,
    dgp_from_r,
    f_statistic,
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
from ivselect.errors import ExperimentError
from ivselect.report import GRID_POINTS, plain


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
    cases = [
        (-math.inf, 2.5, "[-inf, 2.5]", {"lower": None, "upper": 2.5, "lower_unbounded": True, "upper_unbounded": False}),
        (-1.0, math.inf, "[-1, +inf]", {"lower": -1.0, "upper": None, "lower_unbounded": False, "upper_unbounded": True}),
        (-math.inf, math.inf, "[-inf, +inf]", {"lower": None, "upper": None, "lower_unbounded": True, "upper_unbounded": True}),
    ]
    for lower, upper, text, doc in cases:
        iv = Interval(lower, upper)
        assert iv.as_dict() == doc
        assert str(iv) == text
        assert iv.contains(0.0) and iv.width == math.inf


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
    with pytest.raises(TypeError, match="cannot convert Interval"):
        plain({"ci": Interval(0.0, 1.0)})


def test_inversion_recovers_known_retention_set():
    # p(x) = max(0, 1 - |x - 1| / 2): retained set is |x-1| <= 2(1-alpha)
    alpha = 0.05
    fn = lambda xs: np.clip(1.0 - np.abs(np.asarray(xs) - 1.0) / 2.0, 0.0, 1.0)
    interval, xs, ps, info = invert_pvalue_curve(fn, 1.0, 0.5, alpha, n_points=101)
    # xs holds the evaluated nulls only: take the spacing of the full grid
    spacing = np.diff(_full_scan(fn, 1.0, 0.5, alpha, 101)[1]).max()
    assert interval.lower == pytest.approx(1.0 - 1.9, abs=2 * spacing)
    assert interval.upper == pytest.approx(1.0 + 1.9, abs=2 * spacing)
    assert info["expansion_rounds"] >= 1
    assert not info["degenerate"]
    assert info["ends"] == {"lower": "crossing", "upper": "crossing"}


def _full_scan(pvalue_fn, center, halfwidth, alpha, n_points):
    """Reference inversion: evaluates every null of the expanding grid,
    and reports a side unbounded once it is retained at 1e4 initial
    halfwidths from the center, where the scan counts 14 doublings."""
    xs = np.linspace(center - halfwidth, center + halfwidth, n_points)
    ps = np.asarray(pvalue_fn(xs), dtype=float)
    lo_unbounded = hi_unbounded = False
    rounds = 0
    block = max((n_points - 1) // 2, 2)
    reach = 1e4 * halfwidth
    while True:
        retained = ps >= alpha
        lo_open = bool(retained[0]) and not lo_unbounded
        hi_open = bool(retained[-1]) and not hi_unbounded
        if lo_open and center - xs[0] >= reach:
            lo_unbounded, lo_open = True, False
        if hi_open and xs[-1] - center >= reach:
            hi_unbounded, hi_open = True, False
        if not retained.any() or not (lo_open or hi_open):
            break
        rounds += 1
        if lo_open:
            target = center - (center - xs[0]) * ivselect.report._EXPAND_FACTOR
            new_xs = np.linspace(target, xs[0], block + 1)[:-1]
            xs = np.concatenate([new_xs, xs])
            ps = np.concatenate([np.asarray(pvalue_fn(new_xs), float), ps])
        if hi_open:
            target = center + (xs[-1] - center) * ivselect.report._EXPAND_FACTOR
            new_xs = np.linspace(xs[-1], target, block + 1)[1:]
            xs = np.concatenate([xs, new_xs])
            ps = np.concatenate([ps, np.asarray(pvalue_fn(new_xs), float)])

    retained = ps >= alpha
    info = {"grid_size": int(xs.size), "expansion_rounds": rounds, "degenerate": not retained.any()}
    if retained.any():
        lo, hi = np.flatnonzero(retained)[[0, -1]]
    else:
        if not np.isfinite(ps).any():
            raise ExperimentError("p-value curve could not be evaluated anywhere on the grid")
        lo = hi = int(np.nanargmax(ps))

    def end(unbounded, outside):
        if unbounded:
            return "unbounded"
        if 0 <= outside < ps.size and np.isnan(ps[outside]):
            return "underflow"
        return "crossing"

    info["ends"] = {"lower": end(lo_unbounded, lo - 1), "upper": end(hi_unbounded, hi + 1)}
    return Interval(-math.inf if lo_unbounded else xs[lo], math.inf if hi_unbounded else xs[hi]), xs, ps, info


def _curve(family, m, w, level, side, cut, alpha):
    """A p-value curve of one family; m and cut are positions, w > 0 a
    width, level a height in [0, 1], side +-1."""
    def fn(xs):
        x = np.asarray(xs, dtype=float)
        bump = level * np.exp(-0.5 * ((x - m) / w) ** 2)
        if family == "bump":  # one crossing each side, or none
            return bump
        if family == "plateau":  # flat at level, then exactly at alpha if level reaches it
            # (below alpha the ring at alpha would be two islands, not one interval)
            return np.select([np.abs(x - m) <= w, np.abs(x - m) <= 2 * w], [level, min(level, alpha)], 0.0)
        if family == "nan-band":  # unanswerable past cut on one side
            return np.where(side * (x - cut) > 0, np.nan, bump)
        if family == "ray":  # retained from m on, one side unbounded
            return np.where(side * (x - m) >= 0, level, 0.01)
        if family == "two-rays":  # retained away from m: the whole line
            return np.where(np.abs(x - m) >= w, level, 0.01)
        # "peak": a tent of height 1 at m, retained only there at alpha = 1
        return np.clip(1.0 - np.abs(x - m) / w, 0.0, 1.0)

    return fn


@settings(max_examples=400)
@given(
    family=st.sampled_from(["bump", "plateau", "nan-band", "ray", "two-rays", "peak"]),
    n_points=st.one_of(st.integers(3, 70), st.just(201)),
    center=st.floats(-5.0, 5.0),
    halfwidth=st.floats(0.1, 10.0),
    offset=st.floats(-3.0, 3.0),
    log_w=st.floats(-3.0, 3.0),
    log_level=st.floats(-0.5, 1.5),
    side=st.sampled_from([-1.0, 1.0]),
    cut=st.floats(-3.0, 3.0),
    alpha=st.sampled_from([0.05, 0.3, 0.9, 1.0]),
    on_grid=st.integers(0, 10**6),
)
def test_coarse_scan_matches_full_scan(family, n_points, center, halfwidth, offset, log_w,
                                       log_level, side, cut, alpha, on_grid):
    # every family's retained set is one interval, a ray, the whole line
    # or empty: the coarse scan returns the full scan's interval, labels
    # and grid, and has evaluated the null just outside each finite end
    fine = np.linspace(center - halfwidth, center + halfwidth, n_points)
    m = center + offset * halfwidth
    if family == "peak":  # on a grid null, so alpha = 1 retains exactly it
        m, alpha = fine[on_grid % n_points], 1.0
    level = min(1.0, alpha * 10.0**log_level)  # below alpha: nothing retained
    fn = _curve(family, m, halfwidth * 10.0**log_w, level, side, center + cut * halfwidth, alpha)
    try:
        want = _full_scan(fn, center, halfwidth, alpha, n_points)
    except ExperimentError:
        with pytest.raises(ExperimentError, match="anywhere on the grid"):
            invert_pvalue_curve(fn, center, halfwidth, alpha, n_points)
        return
    interval, xs, ps, info = invert_pvalue_curve(fn, center, halfwidth, alpha, n_points)
    assert interval == want[0]
    assert info == want[3]
    ref_xs, ref_ps = want[1], want[2]
    at = np.searchsorted(ref_xs, xs)
    assert np.array_equal(ref_xs[at], xs) and np.array_equal(ref_ps[at], ps, equal_nan=True)
    for end, step in ((interval.lower, -1), (interval.upper, 1)):
        k = int(np.searchsorted(ref_xs, end)) + step
        if np.isfinite(end) and 0 <= k < ref_xs.size:
            assert ref_xs[k] in xs


def test_coarse_scan_misses_a_narrow_island_outside_its_gaps():
    # 201 nulls over [-1, 1], step 0.01, coarse nulls every 0.08.  The
    # main set [-0.5, 0.5] is found exactly; the island at 0.86-0.87
    # holds no coarse null and lies past the gap the fill step reads, so
    # the coarse scan ends at 0.5 where a full scan reaches 0.87
    seen = []

    def fn(xs):
        x = np.asarray(xs, dtype=float)
        seen.extend(x.tolist())
        island = (x > 0.855) & (x < 0.875)
        return np.where((np.abs(x) <= 0.5 + 1e-9) | island, 0.5, 0.0)

    full = _full_scan(fn, 0.0, 1.0, 0.05, 201)[0]
    assert full.upper == pytest.approx(0.87)
    seen.clear()
    interval, _, _, info = invert_pvalue_curve(fn, 0.0, 1.0, 0.05, 201)
    assert interval.lower == pytest.approx(-0.5) and interval.upper == pytest.approx(0.5)
    assert info["ends"] == {"lower": "crossing", "upper": "crossing"}
    assert not any(0.855 < x < 0.875 for x in seen)


def test_inversion_flags_unbounded_sides():
    fn = lambda xs: np.full(np.shape(xs), 0.5)
    interval, _, _, info = invert_pvalue_curve(fn, 0.0, 1.0, 0.05, n_points=21)
    assert math.isinf(interval.lower) and math.isinf(interval.upper)
    assert info["ends"] == {"lower": "unbounded", "upper": "unbounded"}


def test_inversion_labels_an_end_cut_by_unanswerable_nulls():
    # retained from -1 on; past 1.25 the curve cannot be evaluated (NaN)
    def fn(xs):
        xs = np.asarray(xs)
        return np.where(xs > 1.25, np.nan, np.where(xs >= -1.0, 0.5, 0.0))

    interval, _, _, info = invert_pvalue_curve(fn, 0.0, 2.0, 0.05, n_points=41)
    assert interval.lower == pytest.approx(-1.0) and interval.upper == pytest.approx(1.2)
    assert info["ends"] == {"lower": "crossing", "upper": "underflow"}


def test_answer_reads_beta0_and_the_unanswerable_nulls_off_its_curve():
    # a bump on the estimate grid with a NaN band over its upper half: the
    # answer is the curve's own value and extras at [beta0], read off the
    # first pass, which beta0 leads, and its unanswerable nulls are
    # exactly the grid nulls evaluated with NaN
    data = generate(dgp_from_r(0.3, 0.5, n=300, p=4, seed=7))
    center, halfwidth = tsls_estimate(data), 8.0 * tsls_standard_error(data)
    calls = []

    def curve(xs):
        calls.append(xs)
        z = (xs - center) / halfwidth
        ps = np.where((z > 0.3) & (z < 0.7), np.nan, np.exp(-8.0 * z * z))
        return ps, 2.0 * xs

    beta0 = center - 0.1 * halfwidth
    got = answer(curve, data, beta0, 0.05)
    assert len(calls) == 2
    first, grid_nulls = calls[0], np.concatenate([calls[0][1:], *calls[1:]])
    want = curve(np.array([beta0]))
    assert first[0] == beta0
    np.testing.assert_array_equal(first[1:], np.linspace(center - halfwidth, center + halfwidth, GRID_POINTS)[::8])
    assert got.pvalue == want[0][0]
    assert len(got.at_beta0) == 2
    for item, ref in zip(got.at_beta0, want):
        np.testing.assert_array_equal(item, ref)
    nan_nulls = np.sort(grid_nulls[np.isnan(curve(grid_nulls)[0])])
    assert got.unanswerable == tuple(nan_nulls.tolist()) and len(nan_nulls) > 0
    # only evaluated nulls: the band holds more grid nulls than were read
    fine = np.linspace(center - halfwidth, center + halfwidth, GRID_POINTS)
    z = (fine - center) / halfwidth
    assert np.count_nonzero((z > 0.3) & (z < 0.7)) > len(nan_nulls)
    assert got.grid["ends"] == {"lower": "crossing", "upper": "underflow"}


@pytest.mark.parametrize(
    "retained, rounds",
    [((-0.5, 0.5), 0), ((-3.0, 20.0), 5), ((-0.5, math.inf), 14), ((-math.inf, math.inf), 14)],
    ids=["bounded", "both-then-upper", "upper-unbounded", "unbounded"],
)
def test_an_answer_makes_two_curve_calls_and_one_per_expansion_round(retained, rounds):
    # beta0 rides in the first coarse pass, and a round that grows both
    # sides reads both in one call: a bounded answer makes 2 curve calls,
    # and r rounds add at most r.  retained is the retained set in grid
    # halfwidths about the estimate; the reach doubles from 1 per round,
    # so (-3, 20) grows both sides twice and the upper side 3 more times
    data = generate(dgp_from_r(0.3, 0.5, n=300, p=4, seed=7))
    center, halfwidth = tsls_estimate(data), 8.0 * tsls_standard_error(data)
    lo, hi = retained
    calls = []

    def curve(xs):
        calls.append(xs)
        z = (xs - center) / halfwidth
        return (np.where((z >= lo) & (z <= hi), 0.5, 0.01),)

    got = answer(curve, data, center + 0.3 * halfwidth, 0.05)
    assert got.grid["expansion_rounds"] == rounds
    # every call but a final fine pass grows the grid, and each of those
    # after the first is one round
    assert len(calls) == 2 + rounds - (retained == (-math.inf, math.inf))
    assert got.pvalue == 0.5 and calls[0][0] == center + 0.3 * halfwidth


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


@pytest.mark.parametrize("level", [0.5, 0.01], ids=["retained", "rejected"])
def test_inversion_refuses_a_grid_that_collapses_onto_its_center(level):
    # 1e16 +- 0.5 rounds to 1e16: the grid could never grow, so it is
    # refused by name before the curve is read, retained or not
    calls = []

    def fn(xs):
        calls.append(xs)
        return np.full(np.shape(xs), level)

    with pytest.raises(ExperimentError, match=r"halfwidth 0\.5 .* center 1e\+16"):
        invert_pvalue_curve(fn, 1e16, 0.5, 0.05)
    assert calls == []


def _lasso_case():
    """A dataset and a randomized Lasso selection of some of its instruments."""
    data = generate(DGPConfig(
        n=200, p=4, beta_star=1.0, gamma_star=np.array([0.9, 0.6, 0.05, 0.0]),
        sigma_star=np.array([[1.0, 0.5], [0.5, 1.0]]), seed=67,
    ))
    sel = solve_randomized_lasso(
        data,
        default_lasso_penalty(data, seed=69),
        RandomizationLaw(scale=default_lasso_scale(data), seed=68),
    )
    return data, sel


def test_every_inversion_starts_on_the_estimate_grid(monkeypatch):
    # every branch, naive or conditional, starts its CI grid at
    # GRID_POINTS over beta_hat +- 8 SE of the dataset it tests: the whole
    # dataset, or the selected instruments' for the Lasso
    starts = []
    real = ivselect.report.invert_pvalue_curve

    def spy(pvalue_fn, center, halfwidth, alpha, n_points):
        starts.append((center, halfwidth, n_points))
        return real(pvalue_fn, center, halfwidth, alpha, n_points)

    monkeypatch.setattr(ivselect.report, "invert_pvalue_curve", spy)

    def grid_of(data):
        return (tsls_estimate(data), 8.0 * tsls_standard_error(data), GRID_POINTS)

    strong = generate(dgp_from_r(0.3, 0.5, n=300, p=4, seed=7))
    weak = generate(dgp_from_r(0.05, 0.5, n=300, p=3, seed=8))
    lasso_data, sel = _lasso_case()
    assert 1 <= len(sel.support_E) < lasso_data.p
    cases = [
        ("tsls", lambda: invert_ci(strong, run_pretest(strong, c0=10.0, seed=1)),
         [grid_of(strong)]),
        ("clr conditional and naive", lambda: clr_conditional_inference(weak, 0.0),
         [grid_of(weak)] * 2),
        ("lasso", lambda: lasso_conditional_inference(lasso_data, 1.0, sel),
         [grid_of(lasso_data.moments.select(sel.support_E))]),
        ("naive-only ar", lambda: analyze(weak, AnalysisConfig(test="ar")),
         [grid_of(weak)]),
        ("naive-only clr", lambda: analyze(
            strong, AnalysisConfig(test="clr", allow_mismatch=True)
        ), [grid_of(strong)]),
    ]
    for name, run, want in cases:
        starts.clear()
        run()
        assert starts == want, name


def test_each_inversion_evaluates_few_nulls(monkeypatch):
    # on every branch, a CI whose ends both cross inside the default
    # 201-null grid costs at most 45 nulls; an unbounded CLR interval,
    # whose grid expands to 3001 nulls, at most 450
    calls = []
    real = ivselect.report.invert_pvalue_curve

    def spy(pvalue_fn, center, halfwidth, alpha, n_points):
        count = [0]

        def counted(xs):
            count[0] += len(xs)
            return pvalue_fn(xs)

        out = real(counted, center, halfwidth, alpha, n_points)
        calls.append((count[0], out[3]))
        return out

    monkeypatch.setattr(ivselect.report, "invert_pvalue_curve", spy)
    strong = generate(dgp_from_r(0.3, 0.5, n=300, p=4, seed=7))
    weak = generate(dgp_from_r(0.15, 0.8, n=300, p=4, seed=5))
    assert f_statistic(weak) < 10.0
    lasso_data, sel = _lasso_case()
    cases = [
        ("tsls", lambda: invert_ci(strong, run_pretest(strong, c0=10.0, seed=1)), 1),
        ("clr conditional and naive", lambda: clr_conditional_inference(weak, 1.0), 2),
        ("lasso", lambda: lasso_conditional_inference(lasso_data, 1.0, sel), 1),
        ("naive-only ar", lambda: analyze(weak, AnalysisConfig(test="ar")), 1),
        ("naive-only clr", lambda: analyze(strong, AnalysisConfig(test="clr", allow_mismatch=True)), 1),
    ]
    for name, run, n_cis in cases:
        calls.clear()
        run()
        assert len(calls) == n_cis, name
        for count, info in calls:
            assert info["grid_size"] == 201 and info["expansion_rounds"] == 0, name
            assert info["ends"] == {"lower": "crossing", "upper": "crossing"}, name
            assert count <= 45, name

    unbounded = generate(dgp_from_r(0.05, 0.5, n=200, p=3, seed=90))
    calls.clear()
    clr_conditional_inference(unbounded, 1.0)
    assert len(calls) == 2
    for count, info in calls:
        assert info["grid_size"] == 3001 and info["expansion_rounds"] == 14
        assert count <= 450
