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
import numbers
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .clr import clr_conditional_inference, clr_law
from .errors import BranchError, DataError, IVSelectError
from .model import _BLOCK_ROWS, IVDataset, Moments, _RowFactor
from .pretest import RandomizationLaw, default_scale, run_pretest
from .report import InferenceReport, answer, build_report, plain
from .sampler import SamplerConfig, invert_ci, wald_answer
from .simulate import (
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
from .teststats import ar_stat

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
    seed: int = 0
    columns: Optional[dict] = None
    null_value: float = 0.0
    allow_mismatch: bool = False

    def __post_init__(self):
        # a config file's integer c0 or null_value echoes as a float, as a flag's does
        for key, kind in (
            ("c0", float), ("alpha", float), ("seed", int), ("null_value", float),
            ("randomization_scale", float),
        ):
            value = getattr(self, key)
            if value is None and key == "randomization_scale":
                continue
            if not _is_number(value):
                raise ValueError(f"{key} must be a number, got {value!r}")
            if kind is int and not float(value).is_integer():
                raise ValueError(f"{key} must be an integer, got {value!r}")
            setattr(self, key, kind(value))
        if self.test not in _TESTS:
            raise ValueError(f"test must be one of {_TESTS}, got {self.test!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.c0 < 0:
            raise ValueError("C0 must be nonnegative")
        if self.columns is not None:
            _require_keys("columns", self.columns, {"outcome", "treatment", "instruments", "covariates"})
            for role, name in self.columns.items():
                names = [name] if role in ("outcome", "treatment") else name or []
                if not (isinstance(names, (list, tuple)) and all(isinstance(v, str) for v in names)):
                    raise ValueError(f"columns {role} must give column names, got {name!r}")


def _is_number(value) -> bool:
    """A finite real number; a string or a JSON true, which float() takes, is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) < math.inf


def _require_keys(name, value, allowed):
    """ValueError unless value is a mapping whose keys all lie in allowed."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")


def _columns(header, config):
    """(outcome, treatment, instruments, covariates) names, checked
    against the header: each used name is one header column, and no
    column has two roles.  Names that no role uses may repeat."""
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
    roles = {}
    for role, names in (("outcome", [outcome]), ("treatment", [treatment]),
                        ("instrument", instruments), ("covariate", covariates)):
        for name in names:
            if name not in header:
                raise DataError(f"missing column {name!r}")
            if header.count(name) > 1:
                raise DataError(f"column {name!r} appears {header.count(name)} times in the header")
            if name in roles:
                raise DataError(f"column {name!r} has two roles: {roles[name]} and {role}")
            roles[name] = role
    return outcome, treatment, instruments, covariates


def _unused_cell(text):
    """numpy converter for a column no role uses: read, never parsed."""
    return 0.0


def ingest(path: str, config: AnalysisConfig) -> Moments:
    """Parse a headered CSV into the Moments that model.prepare gives its rows.

    The file is UTF-8, after a byte-order mark if it has one (Excel's
    "CSV UTF-8").  The header is read with csv, the body by numpy a block of
    model._BLOCK_ROWS lines at a time; each block is checked, folded into
    the QR factor of [1 X Z D Y] and dropped, so memory does not grow with
    the row count, as in model.prepare, which folds the same blocks.  A cell
    parses when numpy's float parser takes it: optional quotes and
    surrounding whitespace, decimal or exponent notation in ASCII digits.
    Columns that no role uses are not parsed.  Fails loudly: a missing,
    unparseable or non-finite cell, or a row whose field count differs
    from the header's (a blank line is such a row), is reported with its
    (1-based) data row and column name, found by a per-cell rescan from
    the top that runs only after a block's fast parse has failed."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        outcome, treatment, instruments, covariates = _columns(header, config)
        col = {name: header.index(name) for name in [outcome, treatment, *instruments, *covariates]}
        order = [col[name] for name in [*covariates, *instruments, treatment, outcome]]
        unused = {j: _unused_cell for j in set(range(len(header))) - set(col.values())}
        factor = _RowFactor(covariates, instruments)
        fault = None
        with warnings.catch_warnings():
            # a block of blank lines is caught by the line count below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            while fault is None and (lines := list(itertools.islice(fh, _BLOCK_ROWS))):
                try:
                    table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2, converters=unused)
                except ValueError as exc:
                    fault = str(exc)
                else:
                    # numpy skips blank lines, which are errors here: count what it read
                    if table.shape != (len(lines), len(header)):
                        fault = f"{table.shape[0]} rows of {table.shape[1]} fields from {len(lines)} lines"
                    elif not np.isfinite(table).all():  # unused columns read as 0.0
                        fault = "non-finite value"
                    else:
                        factor.add(table[:, order])
    if fault is not None:
        _locate_fault(path, len(header), col, fault)
    if factor.n == 0:
        raise DataError(f"{path}: no data rows")
    return factor.moments()


def _locate_fault(path, width, col, fault):
    """Rescan the body cell by cell and raise a DataError naming the first
    bad row and column.  Runs only once the fast parse has failed, so it
    never returns: with nothing to locate it raises with the fast
    parser's own message.  col maps each used column name to its index."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    null, alpha = config.null_value, config.alpha
    if flavor == "tsls":
        naive = wald_answer(data, null, alpha)
    elif flavor == "ar":
        naive = answer(lambda xs: (ar_stat(data, xs).naive_pvalue,), data, null, alpha)
    else:
        naive = answer(lambda xs: clr_law(data, xs), data, null, alpha)
    return build_report(null, alpha, "naive_only", naive, statistic=flavor, reason=reason)


def analyze(data: IVDataset | Moments, config: AnalysisConfig) -> InferenceReport:
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
        report = invert_ci(data, pretest, alpha=config.alpha, null_value=config.null_value)
    elif test == "tsls":
        reason = mismatch("pre-test failed, so the post-screen conditional law does not apply")
        report = _naive_only(data, config, "tsls", reason)
    elif test in ("clr", "auto") and f_below:
        report = clr_conditional_inference(data, config.null_value, c0=config.c0, alpha=config.alpha)
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
    report.diagnostics["pretest"] = asdict(pretest)
    return report


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_json(doc: dict) -> str:
    return json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


_CONFIG_KEYS = {f.name for f in fields(AnalysisConfig)} - {"allow_mismatch"}
# Gibbs settings that older config files carry; they load and steer nothing
_IGNORED_CONFIG_KEYS = {"samples", "burn_in", "chains"}


def _config_from_args(args) -> AnalysisConfig:
    """The config file's keys, overridden by the flags given, as a checked
    AnalysisConfig; a command without --config reads only its flags."""
    keys = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            keys = json.load(fh)
        unknown = set(keys) - _CONFIG_KEYS - _IGNORED_CONFIG_KEYS
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        keys = {k: v for k, v in keys.items() if k in _CONFIG_KEYS}
    for key in ("c0", "alpha", "test", "seed"):
        v = getattr(args, key, None)
        if v is not None:
            keys[key] = v
    return AnalysisConfig(**keys, allow_mismatch=bool(getattr(args, "override", False)))


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
        "pretest": asdict(pretest),
    }
    _emit(_report_json(doc), args.out)
    return 0


def _list_flag(args, name: str, single: bool) -> tuple:
    """The floats of the comma-separated flag --name: exactly one where
    the command reads a single value, else at least one."""
    text = getattr(args, name)
    values = tuple(float(v) for v in text.split(",") if v != "")
    if not values or (single and len(values) > 1):
        count = "one value" if single else "one or more values"
        raise ValueError(f"--{name} takes {count}, got {text!r}")
    return values


def _cmd_simulate(args) -> int:
    settings = _config_from_args(args)
    seed, c0, alpha = settings.seed, settings.c0, settings.alpha
    single = args.kind != "coverage"  # only the coverage grid reads lists
    rs, s12s = _list_flag(args, "r", single), _list_flag(args, "sigma12", single)
    if args.kind == "coverage":
        grid = ExperimentGrid(
            r_values=rs, sigma12_values=s12s, n=args.n, p=args.p, seed=seed
        )
        cells = coverage_experiment(grid, c0, alpha, args.reps, branch=args.branch)
        _emit(coverage_csv(cells), args.out)
        return 0
    (r,), (s12,) = rs, s12s
    if args.kind == "lasso-uniformity":
        config = dgp_from_r(r, s12, n=args.n, p=args.p, seed=seed)
        if args.first_only:  # after DGPConfig has checked p
            config = replace(config, gamma_star=np.where(np.arange(args.p) == 0, r, 0.0))
        sampler = None if args.samples is None else SamplerConfig(seed=seed, n_samples=args.samples)
        res = lasso_uniformity_experiment(config, args.reps, alpha=alpha, sampler=sampler)
    else:
        config = dgp_from_r(r, s12, n=args.n, p=args.p, seed=seed)
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
    settings = _config_from_args(args)
    seed, c0 = settings.seed, settings.c0
    (r,), (s12,) = _list_flag(args, "r", True), _list_flag(args, "sigma12", True)
    config = dgp_from_r(r, s12, n=args.n, p=args.p, beta_star=args.beta0, seed=seed)
    if args.scale is not None:
        scale = args.scale
    else:
        scale = default_scale(generate(config))
    law = RandomizationLaw(scale=scale, seed=seed)
    draws = rejection_oracle(
        config, args.beta0, c0, law, args.reps, min_retained=args.min_retained
    )
    lines = ["t"]
    lines.extend(repr(float(v)) for v in draws)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMON_FLAGS = {
    "--c0": dict(type=float, help="screen threshold"),
    "--alpha": dict(type=float, help="nominal level"),
    "--test": dict(choices=_TESTS, help="which statistic to use"),
    "--seed": dict(type=int, help="master seed"),
    "--samples": dict(type=int, help="QMC points of the Lasso engine (--kind lasso-uniformity only)"),
    "--burn-in": dict(dest="burn_in", type=int, help="accepted for old scripts; read by nothing"),
    "--out": dict(help="output path (default stdout)"),
    "--config": dict(help="JSON config file"),
}


def _add_common(parser, *flags):
    """The shared flags that the subcommand reads, each defaulting to None."""
    for flag in flags:
        parser.add_argument(flag, default=None, **_COMMON_FLAGS[flag])


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
    _add_common(pa, "--c0", "--alpha", "--test", "--seed", "--out", "--config")
    pa.set_defaults(func=_cmd_analyze)

    pp = sub.add_parser("pretest", help="run only the randomized strength screen")
    pp.add_argument("data")
    _add_common(pp, "--c0", "--seed", "--out", "--config")
    pp.set_defaults(func=_cmd_pretest)

    ps = sub.add_parser("simulate", help="run a simulation experiment, emit CSV")
    ps.add_argument("--kind", choices=["uniformity", "coverage", "lasso-uniformity"],
                    default="uniformity")
    ps.add_argument("--r", default="0.5",
                    help="first-stage strength; comma-separated for --kind coverage")
    ps.add_argument("--sigma12", default="0.8",
                    help="error covariance; comma-separated for --kind coverage")
    ps.add_argument("--reps", type=int, default=500)
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--p", type=int, default=10)
    ps.add_argument("--branch", choices=["tsls_pass", "clr_fail"], default="tsls_pass")
    ps.add_argument("--first-only", action="store_true",
                    help="put all first-stage signal on the first instrument")
    _add_common(ps, "--c0", "--alpha", "--seed", "--samples", "--burn-in", "--out")
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
    _add_common(po, "--c0", "--seed", "--out")
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
