"""Command-line frontend: CSV ingestion, screen-then-branch analysis,
simulation harness access, and machine-readable JSON reports.

Reports are deterministic byte-for-byte given the same inputs and seed:
all randomness flows from the configured seed and the JSON is emitted
with sorted keys.
"""

import argparse
import csv
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clr import clr_conditional_inference, clr_tails
from .errors import BranchError, DataError, IVSelectError
from .model import IVDataset, covariance_estimates, prepare, tsls_estimate, tsls_standard_error
from .pretest import PretestOutcome, run_pretest
from .report import InferenceReport, invert_pvalue_curve, plain
from .sampler import SamplerConfig, invert_ci, wald_interval
from .simulate import (
    DGPConfig,
    ExperimentGrid,
    coverage_csv,
    coverage_experiment,
    dgp_from_r,
    generate,
    lasso_uniformity_experiment,
    pvalue_cdf_csv,
    rejection_oracle,
    uniformity_experiment,
)
from .teststats import ar_stat, clr_statistics, tsls_stat

SCHEMA_VERSION = 2

_TESTS = ("tsls", "ar", "clr", "auto")


@dataclass
class AnalysisConfig:
    """Knobs for one analysis run.

    columns maps roles to CSV column names: outcome and treatment are
    single names, instruments and covariates are lists.  Prefix
    defaults: y, d, z*, x*."""

    c0: float = 10.0
    alpha: float = 0.05
    test: str = "auto"
    randomization_scale: Optional[float] = None
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    ci_grid: Optional[dict] = None
    seed: int = 0
    columns: Optional[dict] = None
    null_value: float = 0.0
    allow_mismatch: bool = False

    def __post_init__(self):
        if self.test not in _TESTS:
            raise ValueError(f"test must be one of {_TESTS}, got {self.test!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.c0 < 0:
            raise ValueError("C0 must be nonnegative")
        if self.ci_grid is not None:
            unknown = set(self.ci_grid) - {"points"}
            if unknown:
                raise ValueError(f"unknown ci_grid keys: {sorted(unknown)}")

    def grid_points(self) -> int:
        """Points of every branch's initial CI grid over beta_hat +- 8 SE."""
        if self.ci_grid is None:
            return 201
        return int(self.ci_grid.get("points", 201))


def _columns(header, config):
    """(outcome, treatment, instruments, covariates) names, checked
    against the header."""
    cols = config.columns or {}
    outcome = cols.get("outcome", "y")
    treatment = cols.get("treatment", "d")
    instruments = cols.get("instruments")
    if instruments is None:
        instruments = [h for h in header if h.startswith("z")]
    covariates = cols.get("covariates")
    if covariates is None:
        covariates = [h for h in header if h.startswith("x")]
    if not instruments:
        raise DataError("no instrument columns (z*) found or configured")
    for name in [outcome, treatment, *instruments, *covariates]:
        if name not in header:
            raise DataError(f"missing column {name!r}")
    return outcome, treatment, instruments, covariates


def _unused_cell(text):
    """numpy converter for a column no role uses: read, never parsed."""
    return 0.0


def ingest(path: str, config: AnalysisConfig) -> IVDataset:
    """Parse a headered CSV into a prepared dataset.

    The header is read with csv, the body in one numpy pass.  A cell
    parses when numpy's float parser takes it: optional quotes and
    surrounding whitespace, decimal or exponent notation in ASCII digits.
    Columns that no role uses are not parsed.  Fails loudly: a missing,
    unparseable or non-finite cell, or a row whose field count differs
    from the header's (a blank line is such a row), is reported with its
    (1-based) data row and column name, found by a per-cell rescan that
    runs only after the fast pass has failed."""
    with open(path) as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        first = next(fh, None)
        if first is None:
            raise DataError(f"{path}: no data rows")
        outcome, treatment, instruments, covariates = _columns(header, config)
        col = {name: header.index(name) for name in [outcome, treatment, *instruments, *covariates]}
        lines = 0

        def counted():
            # numpy skips blank lines, which are errors here: count what it read
            nonlocal lines
            for lines, line in enumerate(itertools.chain([first], fh), start=1):
                yield line

        try:
            with warnings.catch_warnings():
                # a body of blank lines is caught by the line count below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    counted(),
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    ndmin=2,
                    converters={j: _unused_cell for j in set(range(len(header))) - set(col.values())},
                )
            fault = None
        except ValueError as exc:
            fault = str(exc)
    if fault is None:
        if table.shape != (lines, len(header)):
            fault = f"{table.shape[0]} rows of {table.shape[1]} fields from {lines} lines"
        elif not np.isfinite(table).all():  # unused columns read as 0.0
            fault = "non-finite value"
    if fault is not None:
        _locate_fault(path, len(header), col, fault)

    def block(names):
        return np.ascontiguousarray(table[:, [col[name] for name in names]])

    n, p, k = table.shape[0], len(instruments), len(covariates)
    if n <= p + k:
        raise DataError(f"need n > p + k rows, got n={n}, p={p}, k={k}")
    return prepare(
        IVDataset(
            Y=np.ascontiguousarray(table[:, col[outcome]]),
            D=np.ascontiguousarray(table[:, col[treatment]]),
            Z=block(instruments),
            X=block(covariates) if covariates else None,
        )
    )


def _locate_fault(path, width, col, fault):
    """Rescan the body cell by cell and raise a DataError naming the first
    bad row and column.  Runs only once the fast parse has failed, so it
    never returns: with nothing to locate it raises with the fast
    parser's own message.  col maps each used column name to its index."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(reader, start=1):
            if len(row) != width:
                raise DataError(f"row {i}: expected {width} fields, found {len(row)}")
            for name, j in col.items():
                raw = row[j].strip()
                if raw == "":
                    raise DataError(f"row {i}, column {name!r}: missing value")
                try:
                    # float() also takes '_' separators and non-ASCII
                    # digits; numpy's parser does not
                    if "_" in raw or not raw.isascii():
                        raise ValueError(raw)
                    val = float(raw)
                except ValueError:
                    raise DataError(f"row {i}, column {name!r}: could not parse {raw!r}") from None
                if not math.isfinite(val):
                    raise DataError(f"row {i}, column {name!r}: non-finite value {raw!r}")
    raise DataError(f"{path}: could not parse the data rows ({fault})")


def _naive_only(data, config, flavor, reason) -> InferenceReport:
    """Report without a conditional part, for branches whose conditional
    law does not apply (or is not available)."""
    null = config.null_value
    alpha = config.alpha
    if flavor == "tsls":
        naive_p = tsls_stat(data, null, covariance_estimates(data, null)).naive_pvalue
        naive_ci = wald_interval(data, alpha)
        grid_info = None
    else:
        if flavor == "ar":
            def pfn(xs):
                return np.array([ar_stat(data, float(b)).naive_pvalue for b in xs])
        else:  # clr
            est = covariance_estimates(data, null)

            def pfn(xs):
                lr, q_r = clr_statistics(data, xs, est)
                return clr_tails(lr, q_r, data.p)[0]

        naive_p = pfn([null])[0]
        naive_ci, _, _, grid_info = invert_pvalue_curve(
            pfn,
            tsls_estimate(data),
            8.0 * tsls_standard_error(data),
            alpha,
            n_points=config.grid_points(),
        )
    diags = {
        "branch": "naive_only",
        "statistic": flavor,
        "reason": reason,
        "alpha": alpha,
    }
    if grid_info is not None:
        diags["grid"] = grid_info
    return InferenceReport(
        beta0=float(null),
        conditional_pvalue=None,
        naive_pvalue=float(naive_p),
        conditional_ci=None,
        naive_ci=naive_ci,
        diagnostics=diags,
    )


def analyze(data: IVDataset, config: AnalysisConfig) -> InferenceReport:
    """Screen, dispatch to the matching conditional branch, and report.

    auto follows the screen: conditional post-screen inference when it
    passes, the weak-instrument likelihood-ratio branch when it fails.
    Forcing a branch against the screen's verdict requires
    allow_mismatch and yields a naive-only report."""
    pretest = run_pretest(
        data, c0=config.c0, seed=config.seed, scale=config.randomization_scale
    )
    test = config.test
    f_below = pretest.f_stat < config.c0

    def mismatch(reason):
        if not config.allow_mismatch:
            raise BranchError(reason + " (pass the override flag for a naive-only report)")
        return reason

    if test == "ar":
        report = _naive_only(
            data, config, "ar",
            "conditional law of the screened AR statistic is not available; "
            "naive AR inference only",
        )
    elif test in ("tsls", "auto") and pretest.passed:
        report = invert_ci(
            data,
            pretest,
            alpha=config.alpha,
            n_points=config.grid_points(),
            null_value=config.null_value,
        )
    elif test == "tsls":
        reason = mismatch("pre-test failed, so the post-screen conditional law does not apply")
        report = _naive_only(data, config, "tsls", reason)
    elif test in ("clr", "auto") and f_below:
        report = clr_conditional_inference(
            data,
            config.null_value,
            c0=config.c0,
            alpha=config.alpha,
            n_points=config.grid_points(),
        )
    elif test == "clr":
        reason = mismatch("F exceeds C0, so the below-threshold conditional law does not apply")
        report = _naive_only(data, config, "clr", reason)
    else:
        # auto, randomized screen failed, yet F >= C0: neither branch's
        # conditioning event occurred
        report = _naive_only(
            data, config, "tsls",
            "randomized screen failed while F >= C0; no conditional branch applies",
        )
    report.diagnostics["pretest"] = _pretest_dict(pretest)
    return report


def _pretest_dict(pretest: PretestOutcome) -> dict:
    return {
        "f_stat": pretest.f_stat,
        "threshold_c0": pretest.threshold_c0,
        "lam": pretest.lam,
        "omega": pretest.omega,
        "v_hat": pretest.v_hat,
        "d": pretest.d,
        "u": pretest.u,
        "passed": pretest.passed,
        "scale": pretest.scale,
        "seed": pretest.seed,
    }


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_json(doc: dict) -> str:
    return json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


def _config_from_args(args) -> AnalysisConfig:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - {
            "c0", "alpha", "test", "randomization_scale", "seed", "columns",
            "null_value", "ci_grid", "samples", "burn_in", "chains",
        }
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
    merged = {
        "c0": 10.0, "alpha": 0.05, "test": "auto", "randomization_scale": None,
        "seed": 0, "columns": None, "null_value": 0.0, "ci_grid": None,
        "samples": 10000, "burn_in": 2000, "chains": 4,
    }
    merged.update(file_cfg)
    for key in ("c0", "alpha", "test", "seed", "samples", "burn_in"):
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v
    sampler = SamplerConfig(
        n_samples=int(merged["samples"]),
        burn_in=int(merged["burn_in"]),
        seed=int(merged["seed"]),
        chains=int(merged["chains"]),
    )
    return AnalysisConfig(
        c0=float(merged["c0"]),
        alpha=float(merged["alpha"]),
        test=str(merged["test"]),
        randomization_scale=merged["randomization_scale"],
        sampler=sampler,
        ci_grid=merged["ci_grid"],
        seed=int(merged["seed"]),
        columns=merged["columns"],
        null_value=float(merged["null_value"]),
        allow_mismatch=bool(getattr(args, "override", False)),
    )


def _cmd_analyze(args) -> int:
    config = _config_from_args(args)
    data = ingest(args.data, config)
    report = analyze(data, config)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "n": data.n,
        "p": data.p,
        "config": {
            "c0": config.c0,
            "alpha": config.alpha,
            "test": config.test,
            "seed": config.seed,
            "null_value": config.null_value,
            "samples": config.sampler.n_samples,
            "burn_in": config.sampler.burn_in,
            "chains": config.sampler.chains,
        },
        "pretest": report.diagnostics.get("pretest"),
        "branch": report.diagnostics.get("branch"),
        "report": report.to_dict(),
    }
    _emit(_report_json(doc), args.out)
    return 0


def _cmd_pretest(args) -> int:
    config = _config_from_args(args)
    data = ingest(args.data, config)
    pretest = run_pretest(
        data, c0=config.c0, seed=config.seed, scale=config.randomization_scale
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "pretest",
        "n": data.n,
        "p": data.p,
        "pretest": _pretest_dict(pretest),
    }
    _emit(_report_json(doc), args.out)
    return 0


def _floats(text: str):
    return tuple(float(v) for v in text.split(",") if v != "")


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else 0
    c0 = args.c0 if args.c0 is not None else 10.0
    alpha = args.alpha if args.alpha is not None else 0.05
    rs = _floats(args.r)
    s12s = _floats(args.sigma12)
    if args.kind == "coverage":
        grid = ExperimentGrid(
            r_values=rs, sigma12_values=s12s, n=args.n, p=args.p, seed=seed
        )
        cells = coverage_experiment(grid, c0, alpha, args.reps, branch=args.branch)
        _emit(coverage_csv(cells), args.out)
        return 0
    if args.kind == "lasso-uniformity":
        gamma = np.zeros(args.p)
        gamma[0] = rs[0]
        config = DGPConfig(
            n=args.n,
            p=args.p,
            beta_star=1.0,
            gamma_star=gamma if args.first_only else np.full(args.p, rs[0]),
            sigma_star=np.array([[1.0, s12s[0]], [s12s[0], 1.0]]),
            seed=seed,
        )
        sampler = SamplerConfig(
            n_samples=args.samples if args.samples is not None else 10000,
            burn_in=args.burn_in if args.burn_in is not None else 2000,
            seed=seed,
        )
        res = lasso_uniformity_experiment(config, args.reps, alpha=alpha, sampler=sampler)
    else:
        config = dgp_from_r(rs[0], s12s[0], n=args.n, p=args.p, seed=seed)
        res = uniformity_experiment(config, c0, args.reps, alpha=alpha)
    _emit(pvalue_cdf_csv(res.pvalue_samples), args.out)
    summary = {
        "kind": args.kind,
        "passing_rate": res.passing_rate,
        "conditional_coverage": res.conditional_coverage,
        "naive_coverage": res.naive_coverage,
        "ks_statistic": res.ks_statistic,
        "ks_pvalue": res.ks_pvalue,
        "reps": res.reps,
    }
    sys.stderr.write(_report_json(summary))
    return 0


def _cmd_oracle(args) -> int:
    seed = args.seed if args.seed is not None else 0
    c0 = args.c0 if args.c0 is not None else 10.0
    config = dgp_from_r(
        _floats(args.r)[0], _floats(args.sigma12)[0], n=args.n, p=args.p,
        beta_star=args.beta0, seed=seed,
    )
    if args.scale is not None:
        scale = args.scale
    else:
        from .pretest import default_scale

        scale = default_scale(generate(config))
    from .pretest import RandomizationLaw

    law = RandomizationLaw(scale=scale, seed=seed)
    draws = rejection_oracle(
        config, args.beta0, c0, law, args.reps, min_retained=args.min_retained
    )
    lines = ["t"]
    lines.extend(repr(float(v)) for v in draws)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _add_common(parser):
    parser.add_argument("--c0", type=float, default=None, help="screen threshold")
    parser.add_argument("--alpha", type=float, default=None, help="nominal level")
    parser.add_argument("--test", choices=_TESTS, default=None, help="which statistic to use")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--samples", type=int, default=None,
                        help="Gibbs draws per chain (Lasso only; TSLS p-values are exact)")
    parser.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--config", default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivselect",
        description="Selective inference for linear IV models after an "
        "instrument-strength screen",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="screen a dataset and run the matching branch")
    pa.add_argument("data", help="CSV file with outcome, treatment, instruments")
    pa.add_argument("--override", action="store_true",
                    help="allow a forced branch that contradicts the screen (naive-only)")
    _add_common(pa)
    pa.set_defaults(func=_cmd_analyze)

    pp = sub.add_parser("pretest", help="run only the randomized strength screen")
    pp.add_argument("data")
    _add_common(pp)
    pp.set_defaults(func=_cmd_pretest)

    ps = sub.add_parser("simulate", help="run a simulation experiment, emit CSV")
    ps.add_argument("--kind", choices=["uniformity", "coverage", "lasso-uniformity"],
                    default="uniformity")
    ps.add_argument("--r", default="0.5", help="comma-separated first-stage strengths")
    ps.add_argument("--sigma12", default="0.8", help="comma-separated error covariances")
    ps.add_argument("--reps", type=int, default=500)
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--p", type=int, default=10)
    ps.add_argument("--branch", choices=["tsls_pass", "clr_fail"], default="tsls_pass")
    ps.add_argument("--first-only", action="store_true",
                    help="put all first-stage signal on the first instrument")
    _add_common(ps)
    ps.set_defaults(func=_cmd_simulate)

    po = sub.add_parser("oracle", help="brute-force draws from the conditional null law")
    po.add_argument("--n", type=int, default=200)
    po.add_argument("--p", type=int, default=3)
    po.add_argument("--r", default="0.5")
    po.add_argument("--sigma12", default="0.8")
    po.add_argument("--beta0", type=float, default=1.0)
    po.add_argument("--reps", type=int, default=200000)
    po.add_argument("--scale", type=float, default=None,
                    help="randomization scale (default: rule value on a pilot draw)")
    po.add_argument("--min-retained", dest="min_retained", type=int, default=500)
    _add_common(po)
    po.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IVSelectError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
