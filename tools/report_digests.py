"""Print one sha256 per output of ivselect on a fixed set of inputs, or
compare two checkouts output by output.

Two checkouts that print the same lines give byte-identical reports and
simulation tables on every branch: `analyze` on screen-passing (TSLS),
screen-failing (CLR), underflow-band, unbounded-CLR and tiny-LR inputs, on an
input whose tested null the CLR branch refuses because its conditioning
event underflows (exit code 2 and the error on stderr), on a
passing and a failing input with covariates x1..x3 that the instruments
load on, and on a failing one of 2 * 8192 + 17 rows, so three blocks of
ingest, with a constant covariate x4 beside them, and on shift-clr, the
clr-1 rows with Y + 3e6 D tested at null 1 + 3e6, where Omega_hat's
entries cancel, and on shift-tsls, the tsls-1 rows with Y + 3e8 D tested
at null 1 + 3e8, where the determinant of those entries cancels to 0,
and on bom-tsls, the tsls-1 CSV written with a UTF-8 byte-order mark
before its header, as Excel's "CSV UTF-8" saves it, and on the tsls-1
rows under two other configs: tsls-negseed at seed -3, which keys the
streams of seed 2^63 - 3, and far-null at null 1e200, where
|B_Y - beta0 B_D|^2 overflows and every analyze output is refused with
CovarianceError (exit code 2),
each also forced to `--test tsls --override`, `--test clr --override` and
`--test ar` (naive-only); `pretest`; Lasso library
reports with and without a SamplerConfig, lasso/{seed}/points-512,
whose SamplerConfig(n_samples=300, seed=seed + 3) pins a second point
count (rounded up to 512) and stream of the Sobol sets, lasso/negseed,
the lasso-1 report under a negative randomization and penalty seed, and
lasso/empty-support, the error type and text of the Lasso library refusing a selection with an
empty support (the lasso-1 rows at 1e6 times the default penalty),
which pins that this refusal comes before any grid work, whose first
step reads the selected instruments' TSLS estimate and would fail with
another error; and every `simulate` kind,
`uniformity` both where every replication passes the screen (r = 0.3)
and at the bench design, where most of the batch fails it (r = 0.08).
Three more outputs record a run that one setting refuses, by its exit
code and stderr: simulate at alpha 1.5, oracle at C0 nan, and analyze
on tsls-1 at randomization_scale 1e155, where ||S + omega|| overflows.
Checkouts that checked none of these settings exit 0 on the first,
with both coverages 0.0, and 2 on the others with `oracle retained 0
of 20000 simulations ...` and `u must be a unit vector`.
The inputs are generated here by ivselect.simulate.generate at fixed
seeds, so the script needs no data files.  The Lasso outputs pass the
library a raw IVDataset of generated rows, which it prepares with
ivselect.model.prepare on first use.

generate returns the centered rows it draws.  Before that change it
returned prepare's rebuild of them, which differs in the last bit, so
the per-checkout listings of two checkouts on either side of it differ
on every input.  Compare such checkouts with --against, which runs both
on the same input files.

shift-clr's CLR outputs differ from those of checkouts whose CLR law
read Omega_hat's entries, which cancel there: their p-values differ by
about 8e-4 relative.  Checkouts whose covariance check formed det
Omega_hat from Omega_hat's entries exit 2 on shift-tsls's four analyze
outputs (every branch reads the TSLS standard error for its CI grid)
with `Omega_hat is not positive definite`; their pretest output is the
same.  bom-tsls's five outputs are byte-identical to tsls-1's;
checkouts that read the CSV without skipping the mark exit 2 on all of
them with `missing column 'y'`.  Checkouts that drew the randomization
from an unmasked Philox(seed) exit 2 on tsls-negseed's five outputs and
print numpy's ValueError for lasso/negseed.  Checkouts that formed
Sigma_hat(beta0) without checking it exit 0 on far-null's auto and tsls
outputs, with p-values of 1.0, and 2 with other errors on its clr and ar
outputs (an unconverged quadrature, a zero AR denominator).
pretest/far-null equals pretest/tsls-1: the screen reads no null.
Listings printed by versions of this script from before shift-clr,
shift-tsls, bom-tsls, points-512, tsls-negseed, far-null, lasso/negseed
or the three refused runs was added have no lines for them.

    python tools/report_digests.py                 # this checkout's src
    python tools/report_digests.py --src OTHER/src > other.txt

and diff the two listings.  Each line is `sha256  name`; the digest
covers the exit code, stdout (or the --out file) and stderr.

A change that moves the last bits of an answer changes its digest.  To
compare by value, run both checkouts on the same input files:

    python tools/report_digests.py --against OTHER/src --rtol 1e-12

Each output prints `identical`, or the largest relative difference over
its numbers, and `text differs` when anything but a number differs (a
branch, an interval end label).  When both outputs hold a JSON document
(the `analyze` and `pretest` reports and the Lasso outputs), the lines
under it name each key path whose numbers differ by more than --rtol,
with their largest relative difference; list entries share their list's
path, as in `pretest.omega[]`.  `quadrature_error` and `ess` are
skipped: they are rounding-level error estimates.  The exit code is 1
when any output differs by more than --rtol or in its text.  --csv FILE
adds `analyze` and `pretest` on another headered CSV, with FILE's stem
plus .json as its config when that exists.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# (name, r, sigma12, n, p, seed, null_value): strong inputs pass the
# screen, weak ones fail it; "underflow" puts nulls whose failure event
# has mass below 1e-12 inside the CI grid, and "underflow-null" tests one
# such null, which the CLR branch refuses; "unbounded" fails it with a CLR
# interval whose grid expands 14 rounds to 3001 nulls; "small-lr" tests
# beta_hat_LIML + 1e-6, where LR is 2.2e-11 and the CLR tail has a notch
# about 6e-7 wide
DATASETS = [
    ("tsls-1", 0.25, 0.8, 400, 5, 1, 1.0),
    ("tsls-2", 0.25, 0.8, 400, 5, 2, 1.0),
    ("tsls-3", 0.15, 0.8, 1000, 10, 3, 1.0),
    ("clr-1", 0.05, 0.8, 400, 5, 1, 1.0),
    ("clr-2", 0.08, 0.5, 300, 3, 2, 0.0),
    ("underflow-1", 0.3, 0.99, 200, 2, 1, 1.0),
    ("underflow-2", 0.2, 0.99, 200, 2, 1, 1.0),
    ("underflow-null", 0.3, 0.99, 200, 2, 1, 1.6),
    ("unbounded-1", 0.05, 0.5, 200, 3, 90, 1.0),
    ("small-lr", 0.05, 0.8, 1000, 10, 1, 1.073948507635656),
]
# the same design plus covariates x1..x3, which Z, D and Y load on
COVARIATE_DATASETS = [
    ("covariates-tsls", 0.25, 0.8, 400, 5, 3, 1.0),
    ("covariates-clr", 0.05, 0.8, 400, 5, 4, 1.0),
    # two blocks of ivselect.model._BLOCK_ROWS = 8192 rows and 17 more, and
    # a constant x4 beside x1..x3: ingest's blocks and its drop of a
    # constant column that spans them
    ("blocks-clr", 0.02, 0.8, 2 * 8192 + 17, 5, 5, 1.0),
]
# (name, dataset, b): the dataset's rows with Y + b D, tested at its null + b
SHIFTED = [("shift-clr", "clr-1", 3e6), ("shift-tsls", "tsls-1", 3e8)]
# (name, dataset): the dataset's CSV and config, the CSV behind a UTF-8 BOM
BOM = [("bom-tsls", "tsls-1")]
# (name, dataset, keys): the dataset's CSV, and its config with keys replaced
RECONFIGURED = [("tsls-negseed", "tsls-1", {"seed": -3}), ("far-null", "tsls-1", {"null_value": 1e200})]
FORCED = [[], ["--test", "tsls", "--override"], ["--test", "clr", "--override"], ["--test", "ar"]]
SIMULATE = [
    ["--kind", "uniformity", "--r", "0.3", "--reps", "300", "--n", "300", "--p", "5", "--seed", "1"],
    # the bench design, where most of the 1000 screened replications fail
    ["--kind", "uniformity", "--r", "0.08", "--reps", "1000", "--n", "1000", "--p", "10", "--seed", "6"],
    ["--kind", "coverage", "--branch", "tsls_pass", "--r", "0.2,0.4", "--sigma12", "0.8",
     "--reps", "200", "--n", "300", "--p", "5", "--seed", "2"],
    ["--kind", "coverage", "--branch", "clr_fail", "--r", "0.05", "--sigma12", "0.5,0.9",
     "--reps", "200", "--n", "300", "--p", "5", "--seed", "3"],
    ["--kind", "lasso-uniformity", "--r", "0.3", "--reps", "100", "--n", "300", "--p", "4",
     "--seed", "4"],
    ["--kind", "lasso-uniformity", "--first-only", "--r", "0.4", "--reps", "100", "--n", "300",
     "--p", "4", "--seed", "5", "--samples", "256"],
]
# (name, argv): runs that one setting refuses; {dir} is the inputs
# directory, where scale-1e155.json is tsls-1's config at that scale
REFUSED = [
    ("simulate/alpha-1.5", ["simulate", "--r", "0.3", "--reps", "100", "--n", "200", "--p", "3", "--alpha", "1.5"]),
    ("oracle/c0-nan", ["oracle", "--c0", "nan", "--reps", "20000"]),
    ("analyze/tsls-1/scale-1e155", ["analyze", "{dir}/tsls-1.csv", "--config", "{dir}/scale-1e155.json"]),
]
LASSO_SEEDS = (1, 2)
# a value of one of these keys is replaced by * before comparing by value
SKIPPED = re.compile(r'("(?:quadrature_error|ess)": )[^,}\n]+')
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _write_csv(path, y, d, z, x=None):
    header = ["y", "d"] + [f"z{j + 1}" for j in range(z.shape[1])]
    cols = [y, d, z]
    if x is not None:
        header += [f"x{j + 1}" for j in range(x.shape[1])]
        cols.append(x)
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def make_inputs(workdir: Path):
    """Write every generated input into workdir: a CSV and config per
    dataset, and the Lasso datasets as .npy."""
    from ivselect.simulate import dgp_from_r, generate

    for spec in DATASETS + COVARIATE_DATASETS:
        name, r, s12, n, p, seed, null = spec
        data = generate(dgp_from_r(r, s12, n=n, p=p, seed=seed))
        y, d, z, x = data.Y, data.D, data.Z, None
        if spec in COVARIATE_DATASETS:
            x = np.random.default_rng(seed).standard_normal((n, 3)) - 1.0
            z = z + 0.5 * x[:, np.arange(p) % 3] + 2.0
            d = d + x @ np.array([0.5, -0.5, 1.0])
            y = y + x @ np.array([-0.3, 0.2, 0.1])
            if name == "blocks-clr":
                x = np.column_stack([x, np.full(n, 2.5)])
        _write_csv(workdir / f"{name}.csv", y, d, z, x)
        (workdir / f"{name}.json").write_text(json.dumps({"null_value": null, "seed": seed}))
    for name, source, b in SHIFTED:
        _, r, s12, n, p, seed, null = next(spec for spec in DATASETS if spec[0] == source)
        data = generate(dgp_from_r(r, s12, n=n, p=p, seed=seed))
        _write_csv(workdir / f"{name}.csv", data.Y + b * data.D, data.D, data.Z)
        (workdir / f"{name}.json").write_text(json.dumps({"null_value": null + b, "seed": seed}))
    for name, source in BOM:
        (workdir / f"{name}.csv").write_bytes(b"\xef\xbb\xbf" + (workdir / f"{source}.csv").read_bytes())
        (workdir / f"{name}.json").write_bytes((workdir / f"{source}.json").read_bytes())
    for name, source, keys in RECONFIGURED:
        (workdir / f"{name}.csv").write_bytes((workdir / f"{source}.csv").read_bytes())
        config = json.loads((workdir / f"{source}.json").read_text())
        (workdir / f"{name}.json").write_text(json.dumps({**config, **keys}))
    config = json.loads((workdir / "tsls-1.json").read_text())
    (workdir / "scale-1e155.json").write_text(json.dumps({**config, "randomization_scale": 1e155}))
    for seed in LASSO_SEEDS:
        data = generate(dgp_from_r(0.3, 0.5, n=300, p=6, seed=seed))
        np.save(workdir / f"lasso-{seed}.npy", np.column_stack([data.Y, data.D, data.Z]))


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def outputs(workdir: Path, extra_csvs=()):
    """(name, text) for every output on the inputs in workdir, in a fixed
    order.  ivselect is imported here, after main has put the chosen src
    on sys.path."""
    from ivselect.cli import main
    from ivselect.errors import IVSelectError
    from ivselect.lasso import (
        default_lasso_penalty,
        default_lasso_scale,
        lasso_conditional_inference,
        solve_randomized_lasso,
    )
    from ivselect.model import IVDataset
    from ivselect.pretest import RandomizationLaw
    from ivselect.report import plain
    from ivselect.sampler import SamplerConfig

    for name, *_ in DATASETS + COVARIATE_DATASETS + SHIFTED + BOM + RECONFIGURED:
        csv_path, cfg = workdir / f"{name}.csv", workdir / f"{name}.json"
        for flags in FORCED:
            tag = "auto" if not flags else flags[1]
            yield f"analyze/{name}/{tag}", _run_cli(main, ["analyze", str(csv_path), "--config", str(cfg), *flags])
        yield f"pretest/{name}", _run_cli(main, ["pretest", str(csv_path), "--config", str(cfg)])

    for csv_path in map(Path, extra_csvs):
        cfg = csv_path.with_suffix(".json")
        flags = ["--config", str(cfg)] if cfg.exists() else []
        yield f"analyze/{csv_path}", _run_cli(main, ["analyze", str(csv_path), *flags])
        yield f"pretest/{csv_path}", _run_cli(main, ["pretest", str(csv_path), *flags])

    for seed in LASSO_SEEDS:
        block = np.load(workdir / f"lasso-{seed}.npy")
        data = IVDataset(Y=block[:, 0], D=block[:, 1], Z=block[:, 2:])
        law = RandomizationLaw(scale=default_lasso_scale(data), seed=seed + 10)
        sel = solve_randomized_lasso(data, default_lasso_penalty(data, seed=seed), law)
        configs = (
            ("default", None),
            ("sampler", SamplerConfig(n_samples=256, seed=seed)),
            ("points-512", SamplerConfig(n_samples=300, seed=seed + 3)),
        )
        for tag, config in configs:
            rep = lasso_conditional_inference(data, 1.0, sel, config=config, alpha=0.05)
            yield f"lasso/{seed}/{tag}", json.dumps(plain(rep.to_dict()), sort_keys=True)
        if seed == LASSO_SEEDS[0]:
            empty = solve_randomized_lasso(data, 1e6 * default_lasso_penalty(data, seed=seed), law)
            try:
                text = json.dumps(plain(lasso_conditional_inference(data, 1.0, empty).to_dict()), sort_keys=True)
            except IVSelectError as err:
                text = f"{type(err).__name__}: {err}"
            yield "lasso/empty-support", text
            negative = RandomizationLaw(scale=law.scale, seed=-seed - 10)
            try:
                picked = solve_randomized_lasso(data, default_lasso_penalty(data, seed=-seed), negative)
                text = json.dumps(plain(lasso_conditional_inference(data, 1.0, picked).to_dict()), sort_keys=True)
            except ValueError as err:  # numpy's refusal of a negative Philox seed
                text = f"{type(err).__name__}: {err}"
            yield "lasso/negseed", text

    for argv in SIMULATE:
        kind = argv[1] + ("/" + argv[3] if argv[1] == "coverage" else "")
        yield f"simulate/{kind}/seed{argv[argv.index('--seed') + 1]}", _run_cli(main, ["simulate", *argv])

    for name, argv in REFUSED:
        yield name, _run_cli(main, [arg.format(dir=workdir) for arg in argv])


def collect(src, workdir, extra_csvs):
    """{name: text} of every output of the checkout whose package is in
    src, run in a fresh interpreter on the inputs in workdir."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--src", src, "--dump", str(workdir)]
    argv += [f"--csv={c}" for c in extra_csvs]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
    return dict(json.loads(line) for line in lines)


def _json_doc(text: str):
    """(the JSON object that text, or its stdout after the exit-code line,
    starts with; the text around it), or None when there is none."""
    for start in (0, text.find("\n") + 1):
        if text.startswith("{", start):
            try:
                doc, end = json.JSONDecoder().raw_decode(text, start)
            except ValueError:
                return None
            return doc, text[:start] + text[end:]
    return None


def _leaves(doc, path=""):
    """(key path, value) for every leaf of a JSON document; list entries
    share their list's path, with []."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, f"{path}[]")
    else:
        yield path, doc


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _rel(x: float, y: float) -> float:
    return 0.0 if x == y or (x != x and y != y) else abs(x - y) / max(abs(x), abs(y))


def difference(a: str, b: str):
    """(largest relative difference over the numbers, whether anything
    but the numbers differs, {key path: largest relative difference} when
    both texts hold a JSON document, else {}) between two output texts."""
    docs = _json_doc(a), _json_doc(b)
    if None not in docs:
        (doc_a, rest_a), (doc_b, rest_b) = docs
        leaves_a, leaves_b = list(_leaves(doc_a)), list(_leaves(doc_b))
        paths = [path for path, _ in leaves_a]
        text_differs = rest_a != rest_b or paths != [path for path, _ in leaves_b]
        by_key = {}
        for (path, x), (_, y) in zip(leaves_a, leaves_b):
            if path.rsplit(".", 1)[-1] in ("quadrature_error", "ess"):
                continue
            if _is_number(x) and _is_number(y):
                by_key[path] = max(by_key.get(path, 0.0), _rel(x, y))
            else:
                text_differs |= x != y
        by_key = {path: rel for path, rel in by_key.items() if rel > 0}
        return max(by_key.values(), default=0.0), text_differs, by_key
    a, b = SKIPPED.sub(r"\1*", a), SKIPPED.sub(r"\1*", b)
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    text_differs = NUMBER.sub("#", a) != NUMBER.sub("#", b)
    rel = max((_rel(x, y) for x, y in zip(map(float, xs), map(float, ys))), default=0.0)
    return rel, text_differs, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the ivselect package (default: this checkout's src)")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare every output by value with the ivselect package in OTHER_SRC")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference --against accepts (default 0)")
    parser.add_argument("--csv", action="append", default=[],
                        help="another headered CSV to analyze (repeatable)")
    parser.add_argument("--dump", help=argparse.SUPPRESS)  # inputs dir: print [name, text] lines
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    if args.dump:
        for item in outputs(Path(args.dump), args.csv):
            print(json.dumps(item))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        make_inputs(Path(tmp))
        if args.against is None:
            for name, text in outputs(Path(tmp), args.csv):
                print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")
            return 0
        mine, theirs = collect(args.src, tmp, args.csv), collect(args.against, tmp, args.csv)
    failed = False
    for name, text in mine.items():
        if text == theirs[name]:
            print(f"identical  {name}")
            continue
        rel, text_differs, by_key = difference(text, theirs[name])
        failed |= rel > args.rtol or text_differs
        print(f"max rel {rel:.3g}{'  text differs' if text_differs else ''}  {name}")
        for path, key_rel in by_key.items():
            if key_rel > args.rtol:
                print(f"    {key_rel:.3g}  {path}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
