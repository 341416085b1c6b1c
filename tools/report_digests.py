"""Print one sha256 per output of ivselect on a fixed set of inputs.

Two checkouts that print the same lines give byte-identical reports and
simulation tables on every branch: `analyze` on screen-passing (TSLS),
screen-failing (CLR) and underflow-band inputs, each also forced to
`--test tsls --override`, `--test clr --override` and `--test ar`
(naive-only); `pretest`; Lasso library reports with and without a
SamplerConfig; and every `simulate` kind.  The inputs are generated here
by ivselect.simulate.generate at fixed seeds, so the script needs no
data files.

    python tools/report_digests.py                 # this checkout's src
    python tools/report_digests.py --src OTHER/src > other.txt

and diff the two listings.  Each line is `sha256  name`; the digest
covers the exit code, stdout (or the --out file) and stderr.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

# (name, r, sigma12, n, p, seed, null_value): strong inputs pass the
# screen, weak ones fail it; "underflow" puts nulls whose failure event
# has mass below 1e-12 inside the CI grid
DATASETS = [
    ("tsls-1", 0.25, 0.8, 400, 5, 1, 1.0),
    ("tsls-2", 0.25, 0.8, 400, 5, 2, 1.0),
    ("tsls-3", 0.15, 0.8, 1000, 10, 3, 1.0),
    ("clr-1", 0.05, 0.8, 400, 5, 1, 1.0),
    ("clr-2", 0.08, 0.5, 300, 3, 2, 0.0),
    ("underflow-1", 0.3, 0.99, 200, 2, 1, 1.0),
    ("underflow-2", 0.2, 0.99, 200, 2, 1, 1.0),
]
FORCED = [[], ["--test", "tsls", "--override"], ["--test", "clr", "--override"], ["--test", "ar"]]
SIMULATE = [
    ["--kind", "uniformity", "--r", "0.3", "--reps", "300", "--n", "300", "--p", "5", "--seed", "1"],
    ["--kind", "coverage", "--branch", "tsls_pass", "--r", "0.2,0.4", "--sigma12", "0.8",
     "--reps", "200", "--n", "300", "--p", "5", "--seed", "2"],
    ["--kind", "coverage", "--branch", "clr_fail", "--r", "0.05", "--sigma12", "0.5,0.9",
     "--reps", "200", "--n", "300", "--p", "5", "--seed", "3"],
    ["--kind", "lasso-uniformity", "--r", "0.3", "--reps", "100", "--n", "300", "--p", "4",
     "--seed", "4"],
    ["--kind", "lasso-uniformity", "--first-only", "--r", "0.4", "--reps", "100", "--n", "300",
     "--p", "4", "--seed", "5", "--samples", "256"],
]


def _write_csv(path, data):
    header = ["y", "d"] + [f"z{j + 1}" for j in range(data.p)]
    table = np.column_stack([data.Y, data.D, data.Z])
    np.savetxt(path, table, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def outputs(workdir: Path):
    """(name, text) for every output, in a fixed order.  ivselect is
    imported here, after main has put the chosen src on sys.path."""
    from ivselect.cli import main
    from ivselect.lasso import (
        default_lasso_penalty,
        default_lasso_scale,
        lasso_conditional_inference,
        solve_randomized_lasso,
    )
    from ivselect.pretest import RandomizationLaw
    from ivselect.report import plain
    from ivselect.sampler import SamplerConfig
    from ivselect.simulate import dgp_from_r, generate

    for name, r, s12, n, p, seed, null in DATASETS:
        csv_path = workdir / f"{name}.csv"
        _write_csv(csv_path, generate(dgp_from_r(r, s12, n=n, p=p, seed=seed)))
        cfg = workdir / f"{name}.json"
        cfg.write_text(json.dumps({"null_value": null, "seed": seed}))
        for flags in FORCED:
            tag = "auto" if not flags else flags[1]
            yield f"analyze/{name}/{tag}", _run_cli(main, ["analyze", str(csv_path), "--config", str(cfg), *flags])
        yield f"pretest/{name}", _run_cli(main, ["pretest", str(csv_path), "--config", str(cfg)])

    for seed in (1, 2):
        data = generate(dgp_from_r(0.3, 0.5, n=300, p=6, seed=seed))
        law = RandomizationLaw(scale=default_lasso_scale(data), seed=seed + 10)
        sel = solve_randomized_lasso(data, default_lasso_penalty(data, seed=seed), law)
        for tag, config in (("default", None), ("sampler", SamplerConfig(n_samples=256, seed=seed))):
            rep = lasso_conditional_inference(data, 1.0, sel, config=config, alpha=0.05)
            yield f"lasso/{seed}/{tag}", json.dumps(plain(rep.to_dict()), sort_keys=True)

    for argv in SIMULATE:
        kind = argv[1] + ("/" + argv[3] if argv[1] == "coverage" else "")
        yield f"simulate/{kind}/seed{argv[argv.index('--seed') + 1]}", _run_cli(main, ["simulate", *argv])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the ivselect package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in outputs(Path(tmp)):
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
