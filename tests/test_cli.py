"""Command-line frontend: CSV ingestion with located errors, the
screen-then-branch dispatch of analyze, config merging, and the four
subcommands' output formats."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivselect import (
    IVDataset,
    SamplerConfig,
    ar_stat,
    dgp_from_r,
    generate,
    prepare,
    tsls_estimate,
)
from ivselect.cli import AnalysisConfig, analyze, ingest, main
from ivselect.errors import BranchError, DataError

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


def _light(points=41, n_samples=1200, burn_in=300, seed=0, **kw):
    return AnalysisConfig(
        sampler=SamplerConfig(n_samples=n_samples, burn_in=burn_in, chains=2, seed=seed),
        ci_grid={"points": points},
        seed=seed,
        **kw,
    )


# --------------------------------------------------------------- ingest


def test_ingest_toy_file(tmp_path):
    data = ingest(_write(tmp_path, "toy.csv", TOY), AnalysisConfig())
    assert data.n == 4 and data.p == 1
    assert data.X is None
    assert abs(float(data.Y.mean())) < 1e-12
    assert np.allclose(data.Y, np.array([1.0, 2.0, 0.0, 1.5]) - 1.125)


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
    with pytest.raises(DataError, match="need n > p \\+ k rows"):
        ingest(_write(tmp_path, "e.csv", "y,d,z1,z2\n1,2,3,4\n5,6,7,8\n"), cfg)
    with pytest.raises(DataError, match="empty file"):
        ingest(_write(tmp_path, "f.csv", ""), cfg)
    with pytest.raises(DataError, match="no data rows"):
        ingest(_write(tmp_path, "g.csv", "y,d,z1\n"), cfg)


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
    assert np.allclose(data.Z, manual.Z)
    assert np.allclose(data.Y, manual.Y)


def test_ingest_prefix_defaults_pick_up_covariates(tmp_path):
    rng = np.random.default_rng(6)
    w = rng.standard_normal((30, 4))
    rows = ["y,d,z1,x1"] + [",".join(repr(float(v)) for v in row) for row in w]
    data = ingest(_write(tmp_path, "px.csv", "\n".join(rows) + "\n"), AnalysisConfig())
    manual = prepare(IVDataset(Y=w[:, 0], D=w[:, 1], Z=w[:, 2:3], X=w[:, 3:4]))
    assert data.p == 1
    assert np.allclose(data.Y, manual.Y)
    assert np.allclose(data.Z, manual.Z)


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
    ],
    ids=["quoted-and-padded", "crlf", "no-final-newline", "unused-text-column"],
)
def test_ingest_accepts_csv_variants(tmp_path, text):
    path = tmp_path / "v.csv"
    path.write_bytes(text.encode())
    data = ingest(str(path), AnalysisConfig())
    toy = ingest(_write(tmp_path, "toy.csv", TOY), AnalysisConfig())
    for got, want in ((data.Y, toy.Y), (data.D, toy.D), (data.Z, toy.Z)):
        assert np.array_equal(got, want)


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
    data = ingest(str(path), config)
    manual = prepare(IVDataset(Y=y, D=d, Z=z, X=x))
    assert np.array_equal(data.Y, manual.Y)
    assert np.array_equal(data.D, manual.D)
    assert np.array_equal(data.Z, manual.Z)


# -------------------------------------------------------------- analyze


def test_analyze_auto_follows_screen(tmp_path):
    strong = ingest(
        _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv"),
        AnalysisConfig(),
    )
    cfg = _light(null_value=1.0)
    report = analyze(strong, cfg)
    assert report.diagnostics["branch"] == "tsls"
    assert report.diagnostics["pretest"]["passed"] is True
    assert 0.0 <= report.conditional_pvalue <= 1.0
    assert report.conditional_ci is not None

    weak = ingest(
        _dataset_csv(tmp_path, dgp_from_r(0.05, 0.5, n=250, p=3, seed=91), "w.csv"),
        AnalysisConfig(),
    )
    report = analyze(weak, _light(null_value=1.0))
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
        analyze(weak, _light(test="tsls", null_value=1.0))
    report = analyze(weak, _light(test="tsls", null_value=1.0, allow_mismatch=True))
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
        analyze(strong, _light(test="clr", null_value=1.0))
    report = analyze(strong, _light(test="clr", null_value=1.0, allow_mismatch=True))
    assert report.diagnostics["branch"] == "naive_only"
    assert report.diagnostics["statistic"] == "clr"
    assert "grid" in report.diagnostics


def test_analyze_ar_reports_naive_only(tmp_path):
    data = ingest(
        _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv"),
        AnalysisConfig(),
    )
    report = analyze(data, _light(test="ar", null_value=1.0))
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
    report = analyze(weak, _light(points=21, c0=0.0, null_value=1.0))
    assert report.diagnostics["pretest"]["passed"] is True
    assert report.diagnostics["branch"] == "tsls"

    # at a generous randomization scale the conditioning washes out and
    # the conditional answers collapse to the naive ones
    strong = ingest(
        _dataset_csv(tmp_path, dgp_from_r(1.0, 0.5, n=250, p=3, seed=90), "s.csv"),
        AnalysisConfig(),
    )
    cfg = _light(
        points=81,
        n_samples=3000,
        burn_in=800,
        c0=0.0,
        randomization_scale=50.0,
        null_value=1.0,
    )
    report = analyze(strong, cfg)
    assert report.diagnostics["branch"] == "tsls"
    assert abs(report.conditional_pvalue - report.naive_pvalue) < 0.05
    width = report.naive_ci.width
    assert abs(report.conditional_ci.lower - report.naive_ci.lower) < 0.10 * width
    assert abs(report.conditional_ci.upper - report.naive_ci.upper) < 0.10 * width


def test_analyze_screen_fail_with_high_f_is_naive_only(tmp_path):
    # randomization can pull a marginal ||S|| back inside the ball even
    # though F >= C0; neither conditional branch's event occurred
    data = ingest(
        _dataset_csv(tmp_path, dgp_from_r(0.22, 0.5, n=200, p=3, seed=311), "m.csv"),
        AnalysisConfig(),
    )
    report = analyze(data, _light(null_value=1.0))
    assert report.diagnostics["pretest"]["passed"] is False
    assert report.diagnostics["pretest"]["f_stat"] >= 10.0
    assert report.diagnostics["branch"] == "naive_only"
    assert "no conditional branch applies" in report.diagnostics["reason"]


def test_analysis_config_validation():
    with pytest.raises(ValueError, match="test must be one of"):
        AnalysisConfig(test="wald")
    with pytest.raises(ValueError, match="alpha"):
        AnalysisConfig(alpha=1.0)
    with pytest.raises(ValueError, match="C0"):
        AnalysisConfig(c0=-1.0)
    with pytest.raises(ValueError, match="unknown ci_grid keys"):
        AnalysisConfig(ci_grid={"centre": 0.0})
    # every branch's grid is set by its point count alone
    with pytest.raises(ValueError, match=r"unknown ci_grid keys: \['center'\]"):
        AnalysisConfig(ci_grid={"center": 0, "points": 21})


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
                "ci_grid": {"points": 21},
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
                "ci_grid": {"points": 21},
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
    assert doc["config"]["samples"] == 500
    assert doc["config"]["chains"] == 2
    assert doc["config"]["null_value"] == 1.0


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
    assert main(["analyze", weak, "--test", "tsls", "--samples", "400", "--burn-in", "100"]) == 2
    assert "does not apply" in capsys.readouterr().err


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
