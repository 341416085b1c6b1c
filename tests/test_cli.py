"""Command-line frontend: CSV ingestion with located errors, the
screen-then-branch dispatch of analyze, config merging, and the four
subcommands' output formats."""

import functools
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivselect import (
    IVDataset,
    RandomizationLaw,
    ar_stat,
    covariance_estimates,
    default_lasso_penalty,
    dgp_from_r,
    generate,
    lasso_conditional_inference,
    prepare,
    run_pretest,
    solve_randomized_lasso,
    tsls_estimate,
)
from ivselect.cli import AnalysisConfig, _report_json, analyze, ingest, main
from ivselect.errors import BranchError, CovarianceError, DataError, DimensionError, RankDeficiencyError
from ivselect.model import _BLOCK_ROWS

TOY = "y,d,z1\n1.0,2.0,0.5\n2.0,1.0,-0.5\n0.0,3.0,1.5\n1.5,2.5,-1.5\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _dataset_csv(tmp_path, config, name):
    data = generate(config)
    header = ["y", "d"] + [f"z{j + 1}" for j in range(data.p)]
    lines = [",".join(header)]
    for i in range(data.n):
        vals = [data.Y[i], data.D[i], *data.Z[i]]
        lines.append(",".join(repr(float(v)) for v in vals))
    return _write(tmp_path, name, "\n".join(lines) + "\n")


# --------------------------------------------------------------- ingest


_FACTOR_FIELDS = ("chol", "s", "sy", "b")


def _same_moments(got, want):
    """ingest's Moments equal want's bit for bit."""
    assert got.n == want.n
    for name in _FACTOR_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_ingest_toy_file(tmp_path, moments_of):
    data = ingest(_write(tmp_path, "toy.csv", TOY), AnalysisConfig())
    assert data.n == 4 and data.p == 1
    y, d, z = (np.array(c) - np.mean(c) for c in ([1.0, 2.0, 0.0, 1.5], [2.0, 1.0, 3.0, 2.5], [0.5, -0.5, 1.5, -1.5]))
    ref = moments_of(z[:, None], y, d)
    for name in _FACTOR_FIELDS:
        np.testing.assert_allclose(getattr(data, name), getattr(ref, name), rtol=0, atol=1e-14, err_msg=name)
    assert data.dd == pytest.approx(d @ d, rel=1e-14)


def test_ingest_reports_bad_cell_location(tmp_path):
    text = (
        "y,d,z1,z2\n"
        "1.0,2.0,0.5,0.1\n"
        "2.0,1.0,-0.5,0.2\n"
        "0.0,3.0,1.5,oops\n"
        "1.5,2.5,-1.5,0.4\n"
        "2.5,0.5,0.5,0.5\n"
    )
    with pytest.raises(DataError, match="row 3, column 'z2': could not parse 'oops'"):
        ingest(_write(tmp_path, "bad.csv", text), AnalysisConfig())
    # float() parses these, so they must be refused explicitly
    for raw, row in (("nan", 2), ("inf", 4), ("-Infinity", 5)):
        lines = text.replace("oops", "0.3").splitlines()
        fields = lines[row].split(",")
        fields[1] = raw
        lines[row] = ",".join(fields)
        with pytest.raises(DataError, match=f"row {row}, column 'd': non-finite value '{raw}'"):
            ingest(_write(tmp_path, "nonfinite.csv", "\n".join(lines) + "\n"), AnalysisConfig())
    z = np.ones((5, 2))
    z[3, 1] = np.nan
    with pytest.raises(DataError, match=r"Z has a non-finite value at index \(3, 1\)"):
        IVDataset(Y=np.arange(5.0), D=np.arange(5.0) ** 2, Z=z)


def test_ingest_structural_errors(tmp_path):
    cfg = AnalysisConfig()
    with pytest.raises(DataError, match="missing column 'd'"):
        ingest(_write(tmp_path, "a.csv", "y,z1\n1,2\n3,4\n5,6\n"), cfg)
    with pytest.raises(DataError, match="no instrument columns"):
        ingest(_write(tmp_path, "b.csv", "y,d\n1,2\n3,4\n"), cfg)
    with pytest.raises(DataError, match="row 2, column 'y': missing value"):
        ingest(_write(tmp_path, "c.csv", "y,d,z1\n1,2,3\n,2,3\n4,5,6\n"), cfg)
    with pytest.raises(DataError, match="row 1: expected 3 fields, found 4"):
        ingest(_write(tmp_path, "d.csv", "y,d,z1\n1,2,3,9\n4,5,6\n"), cfg)
    with pytest.raises(DimensionError, match="need n > p \\+ k"):
        ingest(_write(tmp_path, "e.csv", "y,d,z1,z2\n1,2,3,4\n5,6,7,8\n"), cfg)
    with pytest.raises(DataError, match="empty file"):
        ingest(_write(tmp_path, "f.csv", ""), cfg)
    with pytest.raises(DataError, match="no data rows"):
        ingest(_write(tmp_path, "g.csv", "y,d,z1\n"), cfg)


def test_ingest_rank_errors_name_the_csv_columns(tmp_path):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((30, 5))
    w[:, 3] = 2.0 * w[:, 2]  # qob_b = 2 qob_a
    text = "y,d,qob_a,qob_b,qob_c\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in w)
    columns = {"instruments": ["qob_c", "qob_a", "qob_b"]}
    with pytest.raises(RankDeficiencyError, match="linearly dependent columns: qob_b$"):
        ingest(_write(tmp_path, "qob.csv", text), AnalysisConfig(columns=columns))
    w[:, 3] = 3.0 * w[:, 4] + 1.0  # age2 = 3 age + 1
    text = "y,d,z1,age2,age\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in w)
    columns = {"instruments": ["z1"], "covariates": ["age", "age2"]}
    with pytest.raises(RankDeficiencyError, match="linearly dependent columns: age2$"):
        ingest(_write(tmp_path, "age.csv", text), AnalysisConfig(columns=columns))


@pytest.mark.parametrize(
    "header, columns, message",
    [
        ("y,d,z1,z2,x1,x1", None, "column 'x1' appears 2 times in the header"),
        ("y,d,z1,z2,x1", {"instruments": ["z1", "z2", "x1"]}, "column 'x1' has two roles: instrument and covariate"),
        ("y,d,z1,z2", {"instruments": ["z1", "d"]}, "column 'd' has two roles: treatment and instrument"),
    ],
    ids=["repeated-header-name", "instrument-and-covariate", "treatment-and-instrument"],
)
def test_ingest_refuses_a_column_read_twice(tmp_path, header, columns, message):
    width = header.count(",") + 1
    rows = np.random.default_rng(9).standard_normal((20, width))
    text = header + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    with pytest.raises(DataError, match=message):
        ingest(_write(tmp_path, "twice.csv", text), AnalysisConfig(columns=columns))


def _short_rows(tmp_path, n):
    """n rows of y, d, z1, z2 and covariates (constant, x2, x3), as a CSV
    path and as the IVDataset of the same numbers."""
    rng = np.random.default_rng(10)
    y, d, z, x = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal((n, 2)), rng.standard_normal((n, 3))
    x[:, 0] = 4.0
    path = tmp_path / f"short{n}.csv"
    np.savetxt(path, np.column_stack([y, d, z, x]), delimiter=",", header="y,d,z1,z2,x1,x2,x3", comments="",
               fmt="%.17g")
    return str(path), IVDataset(Y=y, D=d, Z=z, X=x)


def test_ingest_counts_rows_after_dropping_constant_covariates(tmp_path):
    # p = 2 and two covariates act, so the row rule n > p + k + 1, which
    # counts the intercept, reads the same counts for ingest as for
    # prepare: n = 6 leaves one residual degree of freedom, n = 5 none
    path, raw = _short_rows(tmp_path, 6)
    _same_moments(ingest(path, AnalysisConfig()), prepare(raw))
    path, raw = _short_rows(tmp_path, 5)
    errors = []
    for load in (lambda: ingest(path, AnalysisConfig()), lambda: prepare(raw)):
        with pytest.raises(DimensionError) as info:
            load()
        errors.append(str(info.value))
    assert errors == ["need n > p + k + 1, got n=5, p=2, k=2"] * 2


def test_ingest_column_mapping_and_covariates(tmp_path):
    rng = np.random.default_rng(5)
    n = 40
    w = rng.standard_normal((n, 5))
    rows = ["wage,educ,q1,q2,age"]
    for i in range(n):
        rows.append(",".join(repr(float(v)) for v in w[i]))
    path = _write(tmp_path, "named.csv", "\n".join(rows) + "\n")
    cfg = AnalysisConfig(
        columns={
            "outcome": "wage",
            "treatment": "educ",
            "instruments": ["q1", "q2"],
            "covariates": ["age"],
        }
    )
    data = ingest(path, cfg)
    manual = prepare(
        IVDataset(Y=w[:, 0], D=w[:, 1], Z=w[:, 2:4], X=w[:, 4:5])
    )
    assert data.p == 2
    _same_moments(data, manual)


def test_ingest_prefix_defaults_pick_up_covariates(tmp_path):
    rng = np.random.default_rng(6)
    w = rng.standard_normal((30, 4))
    rows = ["y,d,z1,x1"] + [",".join(repr(float(v)) for v in row) for row in w]
    data = ingest(_write(tmp_path, "px.csv", "\n".join(rows) + "\n"), AnalysisConfig())
    manual = prepare(IVDataset(Y=w[:, 0], D=w[:, 1], Z=w[:, 2:3], X=w[:, 3:4]))
    assert data.p == 1
    _same_moments(data, manual)


def _toy_lines():
    return TOY.splitlines()


@pytest.mark.parametrize(
    "text, message",
    [
        ("\n".join(_toy_lines()[:3] + [""] + _toy_lines()[3:]) + "\n", "row 3: expected 3 fields, found 0"),
        (TOY + "\n", "row 5: expected 3 fields, found 0"),
        ("\n".join(_toy_lines()[:3] + ["   "] + _toy_lines()[3:]) + "\n", "row 3: expected 3 fields, found 1"),
        (TOY.replace("\n2.0,1.0", "\n#2.0,1.0"), "row 2, column 'y': could not parse '#2.0'"),
        (TOY.replace("2.0,1.0,-0.5", "2.0,1_000,-0.5"), "row 2, column 'd': could not parse '1_000'"),
        (TOY.replace("0.0,3.0,1.5", "0.0,\uff13,1.5"), "row 3, column 'd': could not parse '\uff13'"),
        (TOY.replace("0.0,3.0,1.5", '0.0,"3,0",1.5'), "row 3, column 'd': could not parse '3,0'"),
        ("y,d,z1,name\n1,2,3,a\n4,5,6\n", "row 2: expected 4 fields, found 3"),
    ],
    ids=["blank-line", "blank-last-line", "whitespace-line", "hash-row", "underscore", "fullwidth-digit",
         "quoted-comma", "short-row-beside-unused-column"],
)
def test_ingest_locates_faults_of_the_fast_parse(tmp_path, text, message):
    with pytest.raises(DataError, match=message):
        ingest(_write(tmp_path, "bad.csv", text), AnalysisConfig())


@pytest.mark.parametrize(
    "text",
    [
        'y,d,z1\n"1.0", 2.0 ,0.5\n 2.0,"1.0",-0.5\n0.0,3.0,  1.5\n"1.5",2.5,-1.5\n',
        TOY.replace("\n", "\r\n"),
        TOY.rstrip("\n"),
        "y,d,z1,note\n" + "".join(f"{line},text {i}\n" for i, line in enumerate(_toy_lines()[1:])),
        "y,d,z1,note,note\n" + "".join(f"{line},a,b\n" for line in _toy_lines()[1:]),
        "\ufeff" + TOY,
    ],
    ids=["quoted-and-padded", "crlf", "no-final-newline", "unused-text-column", "unused-repeated-name", "utf8-bom"],
)
def test_ingest_accepts_csv_variants(tmp_path, text):
    path = tmp_path / "v.csv"
    path.write_bytes(text.encode())
    data = ingest(str(path), AnalysisConfig())
    _same_moments(data, ingest(_write(tmp_path, "toy.csv", TOY), AnalysisConfig()))


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    k=st.integers(0, 2),
    named=st.booleans(),
)
def test_ingest_equals_prepare_on_the_written_arrays(tmp_path_factory, seed, p, k, named):
    rng = np.random.default_rng(seed)
    n = 25
    y, d = rng.standard_normal(n) * 3.0, rng.standard_normal(n)
    z = rng.standard_normal((n, p))
    x = rng.standard_normal((n, k)) if k else None
    names = {"y": ["y"], "d": ["d"], "z": [f"z{j + 1}" for j in range(p)], "x": [f"x{j + 1}" for j in range(k)]}
    config = AnalysisConfig()
    if named:
        names = {"y": ["wage"], "d": ["educ"], "z": [f"q{j}" for j in range(p)], "x": [f"age{j}" for j in range(k)]}
        config = AnalysisConfig(
            columns={"outcome": "wage", "treatment": "educ", "instruments": names["z"], "covariates": names["x"]}
        )
    table = np.column_stack([y, d, z] + ([x] if k else []))
    header = names["y"] + names["d"] + names["z"] + names["x"]
    order = rng.permutation(len(header)) if named else np.arange(len(header))
    path = tmp_path_factory.mktemp("prop") / "t.csv"
    np.savetxt(path, table[:, order], delimiter=",", header=",".join(np.array(header)[order]),
               comments="", fmt="%.17g")
    _same_moments(ingest(str(path), config), prepare(IVDataset(Y=y, D=d, Z=z, X=x)))


def _block_csv(tmp_path, n, k, seed=0):
    """(path, y, d, z, x): a CSV of n rows, three instruments and k
    covariates, the last of them constant, written to round-trip."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k)) + 3.0
    x[:, -1] = 2.5
    z = rng.standard_normal((n, 3)) + 0.4 * x[:, :1]
    d = z @ np.array([0.3, 0.2, 0.1]) + x[:, 0] + rng.standard_normal(n)
    y = d + rng.standard_normal(n) - x[:, 0]
    header = ["y", "d", "z1", "z2", "z3"] + [f"x{j + 1}" for j in range(k)]
    path = tmp_path / f"blocks-{n}-{k}.csv"
    np.savetxt(path, np.column_stack([y, d, z, x]), delimiter=",", header=",".join(header), comments="", fmt="%.17g")
    return str(path), y, d, z, x


def test_ingest_equals_prepare_across_blocks(tmp_path):
    # three blocks, the last one short: the same boundaries on both paths,
    # and the constant x3 spans them all; it is dropped, as a column of
    # rounding noise must never act as a regressor
    n = 2 * _BLOCK_ROWS + 17
    path, y, d, z, x = _block_csv(tmp_path, n, 3)
    data = ingest(path, AnalysisConfig())
    _same_moments(data, prepare(IVDataset(Y=y, D=d, Z=z, X=x)))
    without = prepare(IVDataset(Y=y, D=d, Z=z, X=x[:, :2]))
    for name in _FACTOR_FIELDS:
        np.testing.assert_allclose(getattr(data, name), getattr(without, name), rtol=1e-12, atol=1e-12, err_msg=name)


def test_ingest_locates_faults_past_the_first_block(tmp_path):
    n = 2 * _BLOCK_ROWS + 100
    path, *_ = _block_csv(tmp_path, n, 1)
    lines = Path(path).read_text().splitlines()
    bad, row = lines.copy(), 2 * _BLOCK_ROWS + 50  # a data row of block 3
    fields = bad[row].split(",")
    fields[4] = "oops"
    bad[row] = ",".join(fields)
    with pytest.raises(DataError, match=f"row {row}, column 'z3': could not parse 'oops'"):
        ingest(_write(tmp_path, "bad.csv", "\n".join(bad) + "\n"), AnalysisConfig())
    blank = lines[: 1 + _BLOCK_ROWS] + [""] + lines[1 + _BLOCK_ROWS :]  # the first line of block 2
    with pytest.raises(DataError, match=f"row {_BLOCK_ROWS + 1}: expected 6 fields, found 0"):
        ingest(_write(tmp_path, "blank.csv", "\n".join(blank) + "\n"), AnalysisConfig())


def test_ingest_memory_does_not_grow_with_rows(tmp_path):
    # ingest holds one block of lines and the factor, whatever n is: the
    # tracemalloc peaks of 4 and 16 blocks of the same columns agree
    # within one block's bytes
    import tracemalloc

    peaks = []
    for blocks in (4, 16):
        path, *_ = _block_csv(tmp_path, blocks * _BLOCK_ROWS, 2)
        tracemalloc.start()
        try:
            ingest(path, AnalysisConfig())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block_bytes = _BLOCK_ROWS * 7 * 8  # one block of the parsed table
    assert abs(peaks[1] - peaks[0]) < block_bytes, peaks


# -------------------------------------------------------------- analyze


def _covariate_rows(r, n=400, seed=0):
    """Raw rows: four instruments of strength r that load on two
    uncentered covariates, which also enter D and Y."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2)) + 3.0
    z = rng.standard_normal((n, 4)) + 0.5 * x[:, :1] + 1.0
    d = z @ np.full(4, r) + x @ np.array([0.5, -0.3]) + rng.standard_normal(n)
    y = d + x @ np.array([-0.2, 0.4]) + rng.standard_normal(n)
    return IVDataset(Y=y, D=d, Z=z, X=x)


@pytest.mark.parametrize("case, r", [("tsls", 0.5), ("clr", 0.04)])
def test_raw_rows_with_covariates_answer_as_prepared(case, r):
    # a row dataset is prepared on first use: every answer on the raw
    # rows, covariates and all, equals the one on prepare's Moments
    raw, m = _covariate_rows(r), prepare(_covariate_rows(r))
    cfg = AnalysisConfig(null_value=1.0, seed=3)
    got = analyze(raw, cfg)
    assert got.diagnostics["branch"] == case
    assert _report_json(got.to_dict()) == _report_json(analyze(m, cfg).to_dict())
    assert _report_json(asdict(run_pretest(raw, seed=3))) == _report_json(asdict(run_pretest(m, seed=3)))
    assert tsls_estimate(raw) == tsls_estimate(m)
    law = RandomizationLaw(scale=0.1, seed=4)
    sel = solve_randomized_lasso(raw, default_lasso_penalty(raw, seed=5), law)
    assert sel.support_E
    got = lasso_conditional_inference(raw, 1.0, sel).to_dict()
    assert _report_json(got) == _report_json(lasso_conditional_inference(m, 1.0, sel).to_dict())


def test_analyze_auto_follows_screen(tmp_path):
    strong = ingest(
        _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv"),
        AnalysisConfig(),
    )
    cfg = AnalysisConfig(null_value=1.0)
    report = analyze(strong, cfg)
    assert report.diagnostics["branch"] == "tsls"
    assert report.diagnostics["pretest"]["passed"] is True
    assert 0.0 <= report.conditional_pvalue <= 1.0
    assert report.conditional_ci is not None

    weak = ingest(
        _dataset_csv(tmp_path, dgp_from_r(0.05, 0.5, n=250, p=3, seed=91), "w.csv"),
        AnalysisConfig(),
    )
    report = analyze(weak, AnalysisConfig(null_value=1.0))
    assert report.diagnostics["branch"] == "clr"
    assert report.diagnostics["pretest"]["passed"] is False
    assert report.diagnostics["pretest"]["f_stat"] < 10.0
    assert 0.0 <= report.conditional_pvalue <= 1.0


def test_analyze_forced_branch_needs_override(tmp_path):
    weak = ingest(
        _dataset_csv(tmp_path, dgp_from_r(0.05, 0.5, n=250, p=3, seed=91), "w.csv"),
        AnalysisConfig(),
    )
    with pytest.raises(BranchError, match="does not apply"):
        analyze(weak, AnalysisConfig(test="tsls", null_value=1.0))
    report = analyze(weak, AnalysisConfig(test="tsls", null_value=1.0, allow_mismatch=True))
    assert report.diagnostics["branch"] == "naive_only"
    assert report.diagnostics["statistic"] == "tsls"
    assert "does not apply" in report.diagnostics["reason"]
    assert report.conditional_pvalue is None
    assert report.conditional_ci is None
    assert np.isfinite(report.naive_ci.lower)

    strong = ingest(
        _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv"),
        AnalysisConfig(),
    )
    with pytest.raises(BranchError, match="below-threshold"):
        analyze(strong, AnalysisConfig(test="clr", null_value=1.0))
    report = analyze(strong, AnalysisConfig(test="clr", null_value=1.0, allow_mismatch=True))
    assert report.diagnostics["branch"] == "naive_only"
    assert report.diagnostics["statistic"] == "clr"
    assert "grid" in report.diagnostics


def test_analyze_ar_reports_naive_only(tmp_path):
    data = ingest(
        _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv"),
        AnalysisConfig(),
    )
    report = analyze(data, AnalysisConfig(test="ar", null_value=1.0))
    assert report.diagnostics["branch"] == "naive_only"
    assert report.diagnostics["statistic"] == "ar"
    assert report.conditional_pvalue is None
    assert report.naive_pvalue == ar_stat(data, 1.0).naive_pvalue
    assert report.naive_ci.contains(tsls_estimate(data))


def test_analyze_zero_threshold_always_passes(tmp_path):
    # lambda = 0 at C0 = 0, so ||S + omega|| > 0 passes no matter how
    # weak the first stage is
    weak = ingest(
        _dataset_csv(tmp_path, dgp_from_r(0.05, 0.5, n=250, p=3, seed=91), "w.csv"),
        AnalysisConfig(),
    )
    report = analyze(weak, AnalysisConfig(c0=0.0, null_value=1.0))
    assert report.diagnostics["pretest"]["passed"] is True
    assert report.diagnostics["branch"] == "tsls"

    # at a generous randomization scale the conditioning washes out and
    # the conditional answers collapse to the naive ones
    strong = ingest(
        _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv"),
        AnalysisConfig(),
    )
    cfg = AnalysisConfig(c0=0.0, randomization_scale=50.0, null_value=1.0)
    report = analyze(strong, cfg)
    assert report.diagnostics["branch"] == "tsls"
    assert abs(report.conditional_pvalue - report.naive_pvalue) < 0.05
    width = report.naive_ci.upper - report.naive_ci.lower
    assert abs(report.conditional_ci.lower - report.naive_ci.lower) < 0.10 * width
    assert abs(report.conditional_ci.upper - report.naive_ci.upper) < 0.10 * width


def test_analyze_screen_fail_with_high_f_is_naive_only(tmp_path):
    # randomization can pull a marginal ||S|| back inside the ball even
    # though F >= C0; neither conditional branch's event occurred
    data = ingest(
        _dataset_csv(tmp_path, dgp_from_r(0.22, 0.5, n=200, p=3, seed=311), "m.csv"),
        AnalysisConfig(),
    )
    report = analyze(data, AnalysisConfig(null_value=1.0))
    assert report.diagnostics["pretest"]["passed"] is False
    assert report.diagnostics["pretest"]["f_stat"] >= 10.0
    assert report.diagnostics["branch"] == "naive_only"
    assert "no conditional branch applies" in report.diagnostics["reason"]


_UNIT_CASES = {  # (r, sigma12, n, p, seed): the branch its analysis takes
    "tsls": (0.2, 0.8, 300, 4, 3),
    "clr": (0.1, 0.8, 300, 4, 4),
    "clr-unbounded": (0.05, 0.5, 250, 3, 91),
}


def _unit_analysis(case, a=1.0, b=0.0, c=1.0, z_units=1.0):
    """analyze after Y -> aY + bD, D -> cD and Z -> Z diag(z_units), at the
    mapped null."""
    r, sigma12, n, p, seed = _UNIT_CASES[case]
    data = generate(dgp_from_r(r, sigma12, n=n, p=p, seed=seed))
    mapped = prepare(IVDataset(Y=a * data.Y + b * data.D, D=c * data.D, Z=data.Z * z_units))
    config = AnalysisConfig(seed=seed, null_value=(a * 1.0 + b) / c)
    return analyze(mapped, config)


def _assert_intervals_mapped(base, got, a, b, c, conditional=True):
    """The intervals of got are base's mapped by beta -> (a beta + b) / c,
    to rel 1e-8, with their end labels (swapped when a / c < 0).  With
    conditional False only the naive interval and its grid are checked."""
    names = ("conditional_ci", "naive_ci") if conditional else ("naive_ci",)
    for name in names:
        ends = [(a * x + b) / c for x in (getattr(base, name).lower, getattr(base, name).upper)]
        iv = getattr(got, name)
        np.testing.assert_allclose([iv.lower, iv.upper], sorted(ends), rtol=1e-8, atol=1e-8 * abs(a / c))
    for key, grid in base.diagnostics.items():
        if isinstance(grid, dict) and "ends" in grid and (conditional or key == "naive_grid"):
            lower, upper = grid["ends"]["lower"], grid["ends"]["upper"]
            expected = {"lower": lower, "upper": upper} if a / c > 0 else {"lower": upper, "upper": lower}
            assert got.diagnostics[key]["ends"] == expected


@pytest.mark.parametrize("case", list(_UNIT_CASES))
@pytest.mark.parametrize(
    "a, b, c",
    [(1e6, 0.0, 1.0), (-1e6, 3e6, 1.0), (1e-6, -2e-6, 1.0), (1.0, 0.0, 1e6), (1.0, 0.0, 1e-6)],
)
def test_analyze_intervals_equivariant_under_units(case, a, b, c):
    # beta -> (a beta + b) / c maps every interval and its end labels;
    # a < 0 swaps the ends.  The screen does not see Y, and sees D only
    # through S, whose randomization scales with it, so the branch holds.
    base = _unit_analysis(case)
    got = _unit_analysis(case, a, b, c)
    assert got.diagnostics["branch"] == base.diagnostics["branch"]
    _assert_intervals_mapped(base, got, a, b, c)


@functools.lru_cache(maxsize=None)
def _unit_base(case):
    return _unit_analysis(case)


@settings(derandomize=True)
@given(
    case=st.sampled_from(["tsls", "clr"]),
    log_a=st.floats(-6.0, 6.0),
    a_sign=st.sampled_from([-1.0, 1.0]),
    log_shift=st.floats(-3.0, 5.0),
    shift_sign=st.sampled_from([-1.0, 1.0]),
    log_c=st.floats(-6.0, 6.0),
    c_sign=st.sampled_from([-1.0, 1.0]),
    log_z=st.lists(st.floats(-6.0, 6.0), min_size=4, max_size=4),
)
def test_analyze_intervals_equivariant_under_any_units(case, log_a, a_sign, log_shift, shift_sign, log_c, c_sign,
                                                        log_z):
    # the property behind the fixed cases above, for any a != 0, b and
    # c != 0, and any positive units per instrument: S = L^-1 Z'D is
    # unchanged by Z -> Z diag(s), so the realized screen is too.
    # D -> -D flips S, but the screen's realized randomization omega is
    # fixed in coordinates, so S + omega is not flipped with it and the
    # passed-screen (TSLS) conditional answer moves; for c < 0 that case
    # checks its naive (Wald) answer only.  |b / a| is log-uniform up to
    # 1e5: the mapped null (a + b) / c is itself rounded by eps |b / a| in
    # beta, and at |b / a| = 3e6 that one ulp moves the CLR p-value by
    # 1.4e-9, past the 1e-9 bound (the fixed b cases above reach 3e6)
    a, c = a_sign * 10.0**log_a, c_sign * 10.0**log_c
    b = shift_sign * 10.0**log_shift * abs(a)
    base, got = _unit_base(case), _unit_analysis(case, a, b, c, 10.0 ** np.array(log_z))
    assert got.diagnostics["branch"] == base.diagnostics["branch"] == case
    conditional = case == "clr" or c > 0
    _assert_intervals_mapped(base, got, a, b, c, conditional)
    for name in ("conditional_pvalue", "naive_pvalue")[not conditional:]:
        assert abs(getattr(got, name) - getattr(base, name)) <= 1e-9, name


@pytest.mark.parametrize("case", ["clr", "clr-unbounded"])
@pytest.mark.parametrize("b", [1e4, 1e6, 3e6])
def test_clr_answer_invariant_when_y_gains_a_multiple_of_d(case, b):
    # Y -> Y + bD maps the CLR law at a null to the law at null + b.
    # Omega_hat's entries grow like b^2 and cancel in det Omega_hat and in
    # Sigma_hat(null + b), so the law reads both off the residual factor
    base, got = _unit_base(case), _unit_analysis(case, b=b)
    assert got.diagnostics["branch"] == base.diagnostics["branch"] == "clr"
    _assert_intervals_mapped(base, got, 1.0, b, 1.0)
    for name in ("conditional_pvalue", "naive_pvalue"):
        assert abs(getattr(got, name) - getattr(base, name)) <= 1e-8, name


def test_tsls_answer_kept_when_y_gains_a_large_multiple_of_d():
    # Y -> Y + 1e9 D at null 1 + 1e9: Omega_hat's entries grow like 1e18,
    # and o00 o11 - o01^2 cancels past its sign (-128 against det
    # Omega_hat = 0.29), so a positive-definiteness check on the entries
    # refused this well-posed input.  det B keeps it; the mapped null is
    # itself rounded by eps 1e9
    data = generate(dgp_from_r(0.2, 0.8, n=300, p=4, seed=3))
    base, shifted = (prepare(IVDataset(Y=data.Y + b * data.D, D=data.D, Z=data.Z)) for b in (0.0, 1e9))
    np.testing.assert_allclose(covariance_estimates(shifted, 1.0 + 1e9), covariance_estimates(base, 1.0), rtol=1e-5)
    want, got = (analyze(m, AnalysisConfig(seed=3, null_value=1.0 + b)) for m, b in ((base, 0.0), (shifted, 1e9)))
    assert got.diagnostics["branch"] == want.diagnostics["branch"] == "tsls"
    for name in ("conditional_pvalue", "naive_pvalue"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-5), name


def test_analysis_config_validation():
    with pytest.raises(ValueError, match="test must be one of"):
        AnalysisConfig(test="wald")
    with pytest.raises(ValueError, match="alpha"):
        AnalysisConfig(alpha=1.0)
    with pytest.raises(ValueError, match="C0"):
        AnalysisConfig(c0=-1.0)
    # the CI grid is report.GRID_POINTS on every branch: no knob sets it
    with pytest.raises(TypeError, match="ci_grid"):
        AnalysisConfig(ci_grid={"points": 21})


# ------------------------------------------------------------- main/json


def test_cli_analyze_reproducible_json(tmp_path):
    csv_path = _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv")
    cfg_path = _write(
        tmp_path,
        "cfg.json",
        json.dumps(
            {
                "samples": 600,
                "burn_in": 150,
                "chains": 2,
                "null_value": 1.0,
            }
        ),
    )
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(["analyze", str(csv_path), "--config", cfg_path, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    doc = json.loads(outs[0])
    assert doc["schema_version"] == 2
    assert doc["command"] == "analyze"
    assert doc["branch"] == "tsls"
    assert doc["n"] == 250 and doc["p"] == 3
    assert len(doc["pretest"]["omega"]) == 3
    assert doc["pretest"]["passed"] is True
    assert isinstance(doc["pretest"]["scale"], float)
    rep = doc["report"]
    assert 0.0 <= rep["conditional_pvalue"] <= 1.0
    assert 0.0 <= rep["naive_pvalue"] <= 1.0
    assert rep["conditional_ci"]["lower"] < rep["conditional_ci"]["upper"]
    diag = rep["diagnostics"]
    assert diag["method"] == "quadrature" and diag["quadrature_error"] < 1e-10
    assert diag["quadrature_nodes"] >= 96 and diag["ess"] > 1e10
    assert not {"chains", "n_samples", "burn_in", "geweke_z"} & set(diag)
    assert rep["naive_ci"]["lower"] < rep["naive_ci"]["upper"]
    assert rep["beta0"] == 1.0


def test_cli_config_merge_and_flag_override(tmp_path):
    csv_path = _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv")
    cfg_path = _write(
        tmp_path,
        "cfg.json",
        json.dumps(
            {
                "c0": 5.0,
                "alpha": 0.1,
                "samples": 500,
                "burn_in": 100,
                "chains": 2,
                "null_value": 1.0,
            }
        ),
    )
    out = tmp_path / "r.json"
    code = main(
        ["analyze", str(csv_path), "--config", cfg_path, "--c0", "12.0", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["c0"] == 12.0  # flag beats file
    assert doc["config"]["alpha"] == 0.1  # file beats default
    assert doc["config"]["null_value"] == 1.0
    # the retired Gibbs keys still load, and steer and echo nothing
    assert not {"samples", "burn_in", "chains"} & set(doc["config"])


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err

    bad = _write(tmp_path, "bad.csv", "y,d,z1\n1,2,3\n4,x,6\n7,8,9\n")
    assert main(["analyze", bad]) == 2
    assert "row 2, column 'd'" in capsys.readouterr().err

    cfg = _write(tmp_path, "cfg.json", json.dumps({"bogus": 1}))
    toy = _write(tmp_path, "toy.csv", TOY)
    assert main(["analyze", toy, "--config", cfg]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    weak = _dataset_csv(tmp_path, dgp_from_r(0.05, 0.5, n=250, p=3, seed=91), "w.csv")
    assert main(["analyze", weak, "--test", "tsls"]) == 2
    assert "does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "pretest"])
@pytest.mark.parametrize("key", ["seed", "c0"])
def test_cli_null_config_number_is_a_usage_error(tmp_path, capsys, command, key):
    toy = _write(tmp_path, "toy.csv", TOY)
    cfg = _write(tmp_path, "cfg.json", json.dumps({key: None}))
    assert main([command, toy, "--config", cfg]) == 2
    assert f"error: {key} must be a number, got None" in capsys.readouterr().err


_WRONG_TYPE_CONFIGS = [
    ({"randomization_scale": "0.5"}, "randomization_scale must be a number, got '0.5'"),
    ({"randomization_scale": True}, "randomization_scale must be a number, got True"),
    ({"c0": False}, "c0 must be a number, got False"),
    ({"seed": "3"}, "seed must be a number, got '3'"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": -0.25}, "seed must be an integer, got -0.25"),
    ({"null_value": float("nan")}, "null_value must be a number, got nan"),
    ({"c0": float("inf")}, "c0 must be a number, got inf"),
    # ||S + omega|| would overflow: refused by the screen, naming the scale
    ({"randomization_scale": 1e155}, "||S + omega|| overflows: the randomization scale 1e+155 is too large"),
    ({"columns": "y"}, "columns must be an object, got 'y'"),
    ({"columns": {"instrument": ["z1"]}}, "unknown columns keys: ['instrument']"),
    ({"columns": {"outcome": ["y"]}}, "columns outcome must give column names, got ['y']"),
    ({"columns": {"instruments": "z1"}}, "columns instruments must give column names, got 'z1'"),
    # the retired grid-size key is refused by name, whatever its value
    ({"ci_grid": {"points": None}}, "unknown config keys: ['ci_grid']"),
    ({"ci_grid": {"points": 20.5}}, "unknown config keys: ['ci_grid']"),
    ({"ci_grid": [21]}, "unknown config keys: ['ci_grid']"),
    ({"ci_grid": {"points": 201}}, "unknown config keys: ['ci_grid']"),
]


@pytest.mark.parametrize("command", ["analyze", "pretest"])
@pytest.mark.parametrize("keys, message", [
    pytest.param(keys, message, id=json.dumps(keys, separators=(",", ":"))) for keys, message in _WRONG_TYPE_CONFIGS
])
def test_cli_config_value_of_wrong_type_is_a_usage_error(tmp_path, capsys, command, keys, message):
    toy = _write(tmp_path, "toy.csv", TOY)
    cfg = _write(tmp_path, "cfg.json", json.dumps(keys))
    assert main([command, toy, "--config", cfg]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_mismatch_override_flag(tmp_path):
    weak = _dataset_csv(tmp_path, dgp_from_r(0.05, 0.5, n=250, p=3, seed=91), "w.csv")
    out = tmp_path / "o.json"
    code = main(
        ["analyze", weak, "--test", "tsls", "--override", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["branch"] == "naive_only"
    assert doc["report"]["conditional_pvalue"] is None


def test_cli_pretest_subcommand(tmp_path):
    csv_path = _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv")
    outs = []
    for name in ("p1.json", "p2.json"):
        out = tmp_path / name
        assert main(["pretest", str(csv_path), "--seed", "4", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["command"] == "pretest"
    assert doc["schema_version"] == 2
    assert doc["pretest"]["f_stat"] > 10.0
    assert doc["pretest"]["passed"] is True
    assert len(doc["pretest"]["omega"]) == 3
    assert doc["pretest"]["seed"] == 4


def test_cli_simulate_uniformity(tmp_path, capsys):
    out = tmp_path / "u.csv"
    code = main(
        [
            "simulate",
            "--kind", "uniformity",
            "--r", "0.8",
            "--sigma12", "0.5",
            "--reps", "120",
            "--n", "300",
            "--p", "3",
            "--samples", "800",
            "--burn-in", "200",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p_sorted,ecdf"
    assert len(lines) == 121
    first = lines[1].split(",")
    assert 0.0 <= float(first[0]) <= 1.0
    assert float(first[1]) == 1.0 / 120.0
    summary = json.loads(capsys.readouterr().err)
    assert summary["kind"] == "uniformity"
    assert summary["passing_rate"] == 1.0
    assert summary["reps"] == 120


IMPORT_SURFACE = """
import json
import sys
import ivselect.cli

strong, weak, config, out = sys.argv[1:5]


def assert_no_scipy(after):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (after, loaded[:5])


assert_no_scipy("import ivselect.cli")
for csv, branch in ((strong, "tsls"), (weak, "clr")):
    assert ivselect.cli.main(["analyze", csv, "--config", config, "--out", out]) == 0
    assert json.load(open(out))["branch"] == branch
    assert_no_scipy("analyze on the " + branch + " branch")
assert ivselect.cli.main(["pretest", strong, "--out", out]) == 0
assert_no_scipy("pretest")
from ivselect import sampler
code = ivselect.cli.main(["simulate", "--kind", "uniformity", "--r", "0.8", "--sigma12", "0.5",
                          "--reps", "100", "--n", "200", "--p", "2", "--seed", "1", "--out", out])
assert code == 0, code
points = sampler.sobol_sets(sampler.SamplerConfig(n_samples=16), 2, [0])
assert points.shape == (1, 16, 2), points.shape
assert "scipy.stats" in sys.modules
"""


def test_cli_import_defers_scipy_stats_to_its_callers(tmp_path):
    # a fresh process: every test module has imported scipy by now.  The
    # passed- and failed-screen analyses and the pretest load no scipy;
    # simulate's KS test and the Sobol points load scipy.stats
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    strong = _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv")
    weak = _dataset_csv(tmp_path, dgp_from_r(0.05, 0.5, n=250, p=3, seed=91), "w.csv")
    config = _write(tmp_path, "cfg.json", json.dumps({"null_value": 1.0}))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SURFACE, strong, weak, config, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_simulate_coverage(tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        [
            "simulate",
            "--kind", "coverage",
            "--r", "0.6",
            "--sigma12", "0.0",
            "--reps", "200",
            "--n", "200",
            "--p", "2",
            "--samples", "600",
            "--burn-in", "150",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,sigma12,passing_rate,naive_cov,cond_cov,se"
    assert len(lines) == 2
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.6 and row[1] == 0.0
    assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0 and 0.0 <= row[4] <= 1.0


def test_cli_simulate_lasso_uniformity(tmp_path, capsys):
    out = tmp_path / "l.csv"
    code = main(
        [
            "simulate",
            "--kind", "lasso-uniformity",
            "--first-only",
            "--r", "0.9",
            "--sigma12", "0.4",
            "--reps", "100",
            "--n", "150",
            "--p", "3",
            "--samples", "500",
            "--burn-in", "150",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p_sorted,ecdf"
    assert len(lines) >= 51
    summary = json.loads(capsys.readouterr().err)
    assert summary["kind"] == "lasso-uniformity"
    assert summary["passing_rate"] >= 0.5


_ALPHA_MESSAGE = "alpha must lie strictly between 0 and 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--reps", "20", "--r", "nan"], "gamma_star must be finite"),
        (["simulate", "--reps", "20", "--r", "inf"], "gamma_star must be finite"),
        (["simulate", "--reps", "20", "--n", "12", "--p", "10"], "need n > p + 2 observations"),
        # simulate and oracle check --c0, --alpha and --seed as analyze does
        (["simulate", "--alpha", "1.5", "--reps", "100", "--r", "0.3", "--p", "3", "--n", "200"], _ALPHA_MESSAGE),
        (["simulate", "--kind", "lasso-uniformity", "--alpha", "1.5", "--reps", "100", "--r", "0.4", "--p", "4",
          "--n", "300"], _ALPHA_MESSAGE),
        (["simulate", "--alpha", "0", "--reps", "100", "--r", "0.3", "--p", "3", "--n", "200"], _ALPHA_MESSAGE),
        (["simulate", "--c0", "inf", "--reps", "100", "--r", "0.3", "--p", "3", "--n", "200"],
         "c0 must be a number, got inf"),
        (["oracle", "--c0", "nan", "--reps", "20000"], "c0 must be a number, got nan"),
        (["oracle", "--c0", "inf", "--reps", "20000"], "c0 must be a number, got inf"),
    ],
    ids=["r-nan", "r-inf", "n-is-p-plus-2", "alpha-1.5", "lasso-alpha-1.5", "alpha-0", "c0-inf",
         "oracle-c0-nan", "oracle-c0-inf"],
)
def test_cli_simulate_rejects_a_design_it_cannot_draw(argv, message, capsys):
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_oracle_subcommand(tmp_path):
    args = [
        "oracle",
        "--n", "150",
        "--p", "2",
        "--r", "0.8",
        "--sigma12", "0.5",
        "--beta0", "1.0",
        "--reps", "2000",
        "--min-retained", "200",
        "--seed", "6",
    ]
    outs = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == "t"
    assert len(lines) >= 201
    vals = np.array([float(v) for v in lines[1:]])
    assert np.all(np.isfinite(vals))
    assert abs(vals.mean()) < 0.2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--kind", "uniformity", "--config", "/nonexistent.json"],
        ["simulate", "--kind", "uniformity", "--test", "ar"],
        ["oracle", "--config", "/nonexistent.json"],
        ["oracle", "--test", "ar"],
        ["oracle", "--alpha", "0.1"],
        ["oracle", "--samples", "100"],
        ["oracle", "--burn-in", "10"],
        ["analyze", "data.csv", "--samples", "100"],
        ["analyze", "data.csv", "--burn-in", "10"],
        ["pretest", "data.csv", "--alpha", "0.1"],
        ["pretest", "data.csv", "--test", "ar"],
        ["pretest", "data.csv", "--samples", "100"],
        ["pretest", "data.csv", "--burn-in", "10"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}",
)
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, capsys):
    # a flag the subcommand would ignore is a usage error, not a silent no-op
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_LIST_FLAG_MISUSES = [
    (["simulate", "--r", ","], "--r takes one value, got ','"),
    (["simulate", "--sigma12", ""], "--sigma12 takes one value, got ''"),
    (["simulate", "--kind", "coverage", "--r", ","], "--r takes one or more values, got ','"),
    (["simulate", "--kind", "uniformity", "--r", "0.3,0.9", "--reps", "100"],
     "--r takes one value, got '0.3,0.9'"),
    (["simulate", "--kind", "uniformity", "--sigma12", "0.5,0.8", "--reps", "100"],
     "--sigma12 takes one value, got '0.5,0.8'"),
    (["simulate", "--kind", "lasso-uniformity", "--r", "0.3,0.9", "--reps", "100", "--n", "200", "--p", "3"],
     "--r takes one value, got '0.3,0.9'"),
    (["oracle", "--r", ","], "--r takes one value, got ','"),
    (["oracle", "--sigma12", "0.5,0.8", "--reps", "1000", "--min-retained", "1"],
     "--sigma12 takes one value, got '0.5,0.8'"),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join(argv)) for argv, message in _LIST_FLAG_MISUSES
])
def test_cli_list_flags_fail_loudly(argv, message, capsys):
    # an empty list, or a second value the command would not read, is a usage error
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, p", [
    pytest.param(["simulate", "--kind", kind], p, id=kind if p == 0 else f"{kind} --p {p}")
    for kind in ["uniformity", "coverage", "lasso-uniformity"] for p in (0, -1)
] + [
    pytest.param(["simulate", "--kind", "lasso-uniformity", "--first-only"], -1, id="lasso-uniformity --first-only --p -1"),
    pytest.param(["oracle"], -1, id="oracle --p -1"),
])
def test_cli_simulate_needs_an_instrument(argv, p, capsys):
    # p is checked before any array of length p is made
    assert main([*argv, "--p", str(p)]) == 2
    assert f"error: need p >= 1 instruments, got p = {p}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def branch_inputs(tmp_path_factory):
    """(csv, config) of a TSLS, a CLR and a naive-only analysis."""
    tmp = tmp_path_factory.mktemp("branches")
    strong = _dataset_csv(tmp, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "strong.csv")
    weak = _dataset_csv(tmp, dgp_from_r(0.12, 0.5, n=250, p=3, seed=92), "weak.csv")  # F = 7.6
    return {
        branch: (csv_path, _write(tmp, f"{branch}.json", json.dumps({"null_value": 1.0, **extra})))
        for branch, csv_path, extra in [
            ("tsls", strong, {}), ("clr", weak, {"test": "clr"}), ("naive_only", weak, {"test": "ar"}),
        ]
    }


@given(seed=st.integers(-(2**63), 2**63 - 1))
def test_analyze_reproduces_from_its_seed(branch_inputs, tmp_path_factory, seed):
    out = tmp_path_factory.getbasetemp() / "seeded.json"

    def report(csv_path, cfg, s):
        assert main(["analyze", csv_path, "--config", cfg, "--seed", str(s), "--out", str(out)]) == 0
        return out.read_bytes()

    for branch, (csv_path, cfg) in branch_inputs.items():
        first = report(csv_path, cfg, seed)
        assert json.loads(first)["branch"] == branch
        assert report(csv_path, cfg, seed) == first
        other = json.loads(report(csv_path, cfg, seed ^ 1))
        assert other["pretest"]["omega"] != json.loads(first)["pretest"]["omega"]


def test_analyze_keys_a_negative_seed_mod_2_63(branch_inputs, tmp_path):
    # streams are keyed by the seed mod 2^63: -3 answers as 2^63 - 3
    # does, and only the echoed seeds differ
    def report(csv_path, cfg, seed):
        out = tmp_path / "seeded.json"
        assert main(["analyze", csv_path, "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        return json.loads(out.read_bytes())

    def unseeded(doc):
        if isinstance(doc, dict):
            return {k: unseeded(v) for k, v in doc.items() if k != "seed"}
        return [unseeded(v) for v in doc] if isinstance(doc, list) else doc

    for csv_path, cfg in branch_inputs.values():
        neg, wrapped = report(csv_path, cfg, -3), report(csv_path, cfg, 2**63 - 3)
        assert neg["config"]["seed"] == neg["pretest"]["seed"] == -3
        assert wrapped["config"]["seed"] == wrapped["pretest"]["seed"] == 2**63 - 3
        assert unseeded(neg) == unseeded(wrapped)


@pytest.mark.parametrize("r, test, branch", [(0.3, "auto", "tsls"), (0.03, "auto", "clr"), (0.03, "ar", "naive_only")])
def test_analyze_refuses_a_null_that_overflows_sigma(r, test, branch):
    # |B_Y - beta0 B_D|^2 overflows at 1e200, where the TSLS p-values read
    # 1.0 and the CLR and AR branches failed with unrelated errors
    data = generate(dgp_from_r(r, 0.8, n=300, p=4, seed=3))
    assert analyze(data, AnalysisConfig(seed=1, null_value=1.0, test=test)).diagnostics["branch"] == branch
    with pytest.raises(CovarianceError, match=r"overflows at the null beta0 = 1e\+200$"):
        analyze(data, AnalysisConfig(seed=1, null_value=1e200, test=test))
    if branch == "tsls":  # at 1e152 Sigma_hat holds, and the TSLS answer stands
        assert analyze(data, AnalysisConfig(seed=1, null_value=1e152)).naive_pvalue < 1e-15


def test_cli_clr_report_lists_underflowed_nulls(tmp_path):
    # sigma12 = 0.99 puts a band of nulls whose plug-in failure event has
    # mass below 1e-12 inside the CI grid
    csv_path = _dataset_csv(tmp_path, dgp_from_r(0.2, 0.99, n=200, p=2, seed=1), "u.csv")
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"null_value": 1.0}))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["analyze", csv_path, "--config", cfg_path, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["schema_version"] == 2 and doc["branch"] == "clr"
    diags = doc["report"]["diagnostics"]
    assert diags["mass_underflow_points"] == len(diags["mass_underflow_nulls"]) > 0


@pytest.mark.parametrize("units", [1e-5, 1e5])
def test_cli_answer_ignores_one_instruments_units(tmp_path, units):
    # the tsls-1 input of tools/report_digests.py with z2 rescaled: the
    # rank rule reads the sine of each instrument's angle to the earlier
    # ones, and S = L^-1 Z'D does not move, so neither does the answer
    data = generate(dgp_from_r(0.25, 0.8, n=400, p=5, seed=1))
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"null_value": 1.0, "seed": 3}))
    docs = []
    for scale in (1.0, units):
        z = data.Z.copy()
        z[:, 1] *= scale
        rows = np.column_stack([data.Y, data.D, z])
        text = "y,d,z1,z2,z3,z4,z5\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
        out = tmp_path / f"r{scale}.json"
        assert main(["analyze", _write(tmp_path, f"z{scale}.csv", text + "\n"), "--config", cfg_path, "--out", str(out)]) == 0
        docs.append(json.loads(out.read_bytes()))
    assert docs[0]["branch"] == docs[1]["branch"] == "tsls"
    for key in ("conditional_pvalue", "naive_pvalue"):
        assert docs[1]["report"][key] == pytest.approx(docs[0]["report"][key], abs=1e-12), key


def _numbers(doc, path=""):
    """{key path: [values]} of a JSON document's leaves, list entries
    under their list's path."""
    out = {}
    items = doc.items() if isinstance(doc, dict) else ((None, v) for v in doc) if isinstance(doc, list) else None
    if items is None:
        return {path: [doc]}
    for key, value in items:
        for sub, values in _numbers(value, path if key is None else f"{path}.{key}").items():
            out.setdefault(sub, []).extend(values)
    return out


@pytest.mark.parametrize("case", ["tsls", "clr"])
@pytest.mark.parametrize("u_seed", [0, 1])
def test_cli_answers_invariant_under_triangular_instrument_maps(tmp_path, case, u_seed):
    # Z -> ZU with U upper triangular, positive diagonal: the Cholesky
    # factor of U'Z'ZU is U'L, so S = L^-1 Z'D, the screen's draw around
    # it and every answer stay put, whatever units U gives the columns
    r, sigma12, n, p, seed = _UNIT_CASES[case]
    data = generate(dgp_from_r(r, sigma12, n=n, p=p, seed=seed))
    rng = np.random.default_rng(u_seed)
    u = np.triu(rng.standard_normal((p, p)), 1) + np.diag(10.0 ** rng.uniform(-3.0, 3.0, p))
    mapped = prepare(IVDataset(Y=data.Y, D=data.D, Z=data.Z @ u))
    np.testing.assert_allclose(mapped.s, data.moments.s, rtol=1e-9)
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"null_value": 1.0, "seed": seed}))
    docs = []
    for tag, z in (("base", data.Z), ("mapped", data.Z @ u)):
        rows = np.column_stack([data.Y, data.D, z])
        header = ",".join(["y", "d"] + [f"z{j + 1}" for j in range(p)])
        text = header + "\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
        out = tmp_path / f"{tag}.json"
        assert main(["analyze", _write(tmp_path, f"{tag}.csv", text), "--config", cfg_path, "--out", str(out)]) == 0
        docs.append(_numbers(json.loads(out.read_bytes())))
    assert docs[0].keys() == docs[1].keys()
    assert docs[0][".branch"] == [case]
    for key, want in docs[0].items():
        if key.rsplit(".", 1)[-1] in ("quadrature_error", "ess"):  # rounding-level error estimates
            continue
        got = docs[1][key]
        if all(isinstance(v, float) for v in want):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12, err_msg=key)
        else:
            assert got == want, key


def test_cli_clr_answers_at_a_null_with_tiny_lr(tmp_path):
    # 1e-6 from beta_hat_LIML the LR statistic is 2.2e-11: its tail has a
    # notch about 6e-7 wide at u2 = 0, which a uniform grid never resolved.
    # (At beta_hat_LIML itself LR is rounding noise, and may round to 0.)
    csv_path = _dataset_csv(tmp_path, dgp_from_r(0.05, 0.8, n=1000, p=10, seed=1), "small-lr.csv")
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"null_value": 1.073948507635656, "seed": 1}))
    out = tmp_path / "r.json"
    assert main(["analyze", csv_path, "--config", cfg_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_bytes())
    assert doc["branch"] == "clr"
    rep = doc["report"]
    assert rep["conditional_pvalue"] > 0.9999 and rep["naive_pvalue"] > 0.9999
    assert rep["diagnostics"]["quadrature_error"] <= 1e-10 and rep["diagnostics"]["quadrature_nodes"] > 0
