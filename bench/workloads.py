"""The four workloads: seeded inputs, one job each, and their answer checks.

Inputs come from the benchmark's own numpy streams keyed by the workload
seed; the program sees only the generated files and arrays.  A drawn
dataset that would land on another branch is discarded and the stream
draws again, so the same seed always yields the same inputs.  Each
workload cycles its jobs over `distinct` inputs, so a run repeats every
input and averages over several datasets.
"""

import contextlib
import io
import json
import math

import numpy as np

import checks
import ivselect.cli as cli
import ivselect.lasso as lasso
import ivselect.model as model
import ivselect.pretest as pretest
import ivselect.sampler as sampler

C0 = 10.0
ALPHA = 0.05
BETA = 1.0  # beta*, the tested null of every analysis


def stream(seed, tag):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed) & (2**63 - 1), tag])))


def draw_iv(rng, n, gamma, sigma12, x_load=None, k=0):
    """Y = D beta* + X eta + delta, D = Z gamma + X kappa + xi, with
    (delta, xi) unit-variance normal with covariance sigma12.  With k
    covariates, Z loads x_load on them so residualizing matters."""
    p = gamma.size
    x = rng.standard_normal((n, k)) if k else None
    z = rng.standard_normal((n, p))
    if k:
        z += x_load * x[:, np.arange(p) % k]
    err = rng.standard_normal((n, 2)) @ np.linalg.cholesky([[1.0, sigma12], [sigma12, 1.0]]).T
    d = z @ gamma + err[:, 1]
    y = d * BETA + err[:, 0]
    if k:
        d += x @ np.full(k, 0.5)
        y += x @ np.full(k, -0.3)
    return y, d, z, x


def write_csv(path, y, d, z, x=None):
    """Headered CSV with 17 significant digits, which round-trips doubles."""
    cols = [y, d, z] + ([x] if x is not None else [])
    header = ["y", "d"] + [f"z{j + 1}" for j in range(z.shape[1])]
    if x is not None:
        header += [f"x{j + 1}" for j in range(x.shape[1])]
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def program_dataset(y, d, z, x=None):
    return model.prepare(model.IVDataset(Y=y, D=d, Z=z, X=x))


class AnalyzeWorkload:
    """`ivselect analyze` on CSV files, in-process, one report per job."""

    def job(self, i):
        inp = self.inputs[i]
        rc = cli.main(["analyze", inp["csv"], "--config", inp["config"], "--out", inp["out"]])
        if rc != 0:
            raise RuntimeError(f"analyze exited with {rc}")
        with open(inp["out"]) as fh:
            return fh.read()

    def _write(self, workdir, i, y, d, z, x, config):
        base = workdir / f"{self.name}-{i}"
        paths = {"csv": f"{base}.csv", "config": f"{base}.json", "out": f"{base}.report.json"}
        write_csv(paths["csv"], y, d, z, x)
        with open(paths["config"], "w") as fh:
            json.dump(config, fh)
        return paths

    @staticmethod
    def branch(text):
        return json.loads(text)["branch"]

    def check_run(self, texts):
        return []


class TslsPass(AnalyzeWorkload):
    """Marginal first stage (r = 0.12, F mostly 10-20) that passed the
    randomized screen: Gibbs sampling and grid inversion block the result."""

    name = "tsls-pass"
    distinct = 3
    min_jobs = 4
    n, p, r, sigma12 = 1000, 10, 0.12, 0.8
    draws = {"samples": 2000, "burn_in": 500, "chains": 4}

    def __init__(self, seed, workdir):
        rng = stream(seed, 1)
        self.inputs = []
        for i in range(self.distinct):
            while True:
                y, d, z, _ = draw_iv(rng, self.n, np.full(self.p, self.r), self.sigma12)
                analysis_seed = int(rng.integers(2**31))
                data = program_dataset(y, d, z)
                screen = pretest.run_pretest(data, c0=C0, seed=analysis_seed)
                if screen.passed:
                    break
            config = {"null_value": BETA, "seed": analysis_seed, "c0": C0, "alpha": ALPHA, **self.draws}
            inp = self._write(workdir, i, y, d, z, None, config)
            yc, dc, zc = checks.prepared(y, d, z)
            f_stat = checks.tsls_closed_form(yc, dc, zc, BETA, ALPHA)["f_stat"]
            inp.update(arrays=(yc, dc, zc), data=data, screen=screen,
                       info={"n": self.n, "p": self.p, "k": 0, "F": f_stat, "seed": analysis_seed})
            self.inputs.append(inp)

    def check(self, i, text):
        inp = self.inputs[i]
        doc = json.loads(text)
        if doc["branch"] != "tsls":
            return [f"branch {doc['branch']}, expected tsls"]
        rep = doc["report"]
        problems = checks.check_naive_tsls(rep, *inp["arrays"], BETA, ALPHA)
        est = model.covariance_estimates(inp["data"], BETA)
        law = sampler.build_law_tsls(inp["data"], BETA, inp["screen"], est)
        n_draws = self.draws["samples"] * self.draws["chains"]
        problems += checks.check_conditional_tsls(rep, law, n_draws, rep["diagnostics"]["ess"])
        return problems


class ClrFailLargeN(AnalyzeWorkload):
    """n = 200k with five covariates and a weak first stage (F about 8):
    ingest, per-null model work and CLR quadrature, never the sampler."""

    name = "clr-fail-large-n"
    distinct = 1
    min_jobs = 3
    n, p, k, sigma12 = 200_000, 10, 5, 0.8

    def __init__(self, seed, workdir):
        rng = stream(seed, 2)
        r = math.sqrt(7.0 / self.n)  # F - 1 is about n r^2
        while True:
            y, d, z, x = draw_iv(rng, self.n, np.full(self.p, r), self.sigma12, x_load=0.3, k=self.k)
            analysis_seed = int(rng.integers(2**31))
            screen = pretest.run_pretest(program_dataset(y, d, z, x), c0=C0, seed=analysis_seed)
            if not screen.passed and screen.f_stat < C0:
                break
        config = {"null_value": BETA, "seed": analysis_seed, "c0": C0, "alpha": ALPHA}
        inp = self._write(workdir, 0, y, d, z, x, config)
        yc, dc, zc = checks.prepared(y, d, z, x)
        f_stat = checks.tsls_closed_form(yc, dc, zc, BETA, ALPHA)["f_stat"]
        inp.update(arrays=(yc, dc, zc),
                   info={"n": self.n, "p": self.p, "k": self.k, "F": f_stat, "seed": analysis_seed})
        self.inputs = [inp]

    def check(self, i, text):
        doc = json.loads(text)
        if doc["branch"] != "clr":
            return [f"branch {doc['branch']}, expected clr"]
        return checks.check_clr(doc["report"], *self.inputs[i]["arrays"], BETA, ALPHA, C0)


class LassoSelect:
    """Library path of Lasso selection and inference (the CLI has none):
    penalty, randomized Lasso, conditional inference at beta*."""

    name = "lasso-select"
    distinct = 3
    min_jobs = 4
    n, p, signal, sigma12 = 1000, 10, 0.15, 0.8
    draws = dict(n_samples=250, burn_in=50, chains=4)

    def __init__(self, seed, workdir):
        rng = stream(seed, 3)
        gamma = np.zeros(self.p)
        gamma[:3] = self.signal
        self.inputs = []
        for _ in range(self.distinct):
            while True:
                y, d, z, _ = draw_iv(rng, self.n, gamma, self.sigma12)
                seeds = [int(s) for s in rng.integers(2**31, size=3)]
                inp = {"data": program_dataset(y, d, z), "seeds": seeds}
                if self._select(inp).support_E:
                    break
            yc, dc, zc = checks.prepared(y, d, z)
            f_stat = checks.tsls_closed_form(yc, dc, zc, BETA, ALPHA)["f_stat"]
            inp.update(arrays=(yc, dc, zc),
                       info={"n": self.n, "p": self.p, "k": 0, "F": f_stat, "seed": seeds[2]})
            self.inputs.append(inp)

    def _select(self, inp):
        data, (s_pen, s_rand, _) = inp["data"], inp["seeds"]
        lam = lasso.default_lasso_penalty(data, seed=s_pen)
        law = pretest.RandomizationLaw(scale=lasso.default_lasso_scale(data), seed=s_rand)
        return lasso.solve_randomized_lasso(data, lam, law)

    def job(self, i):
        inp = self.inputs[i]
        sel = self._select(inp)
        config = sampler.SamplerConfig(seed=inp["seeds"][2], **self.draws)
        rep = lasso.lasso_conditional_inference(inp["data"], BETA, sel, config=config, alpha=ALPHA)
        doc = {
            "selection": {
                "lambda_l": sel.lambda_l,
                "omega": sel.omega.tolist(),
                "gamma_l": sel.gamma_l.tolist(),
                "subgradient_u": sel.subgradient_u.tolist(),
            },
            "report": rep.to_dict(),
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def branch(text):
        return json.loads(text)["report"]["diagnostics"]["branch"]

    def check(self, i, text):
        doc = json.loads(text)
        sel, rep = doc["selection"], doc["report"]
        yc, dc, zc = self.inputs[i]["arrays"]
        problems = checks.check_lasso_selection(zc, dc, sel["lambda_l"], sel["omega"], sel["gamma_l"], sel["subgradient_u"])
        support = np.nonzero(np.asarray(sel["gamma_l"]))[0]
        if support.size:
            problems += checks.check_naive_tsls(rep, yc, dc, zc[:, support], BETA, ALPHA)
        p = rep["conditional_pvalue"]
        if p is None or not 0.0 <= p <= 1.0:
            problems.append(f"conditional p-value {p} outside [0, 1]")
        return problems

    def check_run(self, texts):
        return []


class UniformityStudy:
    """`ivselect simulate --kind uniformity` at r = 0.08: many small
    laws, one p-value each, no interval inversion."""

    name = "uniformity-study"
    # The sampler's share of a job follows the number of passing reps,
    # which varies by dataset, so a run cycles over eight datasets.
    distinct = 8
    min_jobs = 9
    n, p, r, sigma12, reps = 1000, 10, 0.08, 0.8, 1000
    draws = {"samples": 1000, "burn_in": 250}

    def __init__(self, seed, workdir):
        rng = stream(seed, 4)
        self.inputs = []
        for i in range(self.distinct):
            sim_seed = int(rng.integers(2**31))
            self.inputs.append({
                "seed": sim_seed,
                "out": str(workdir / f"{self.name}-{i}.csv"),
                "info": {"n": self.n, "p": self.p, "k": 0, "F": None, "reps": self.reps, "seed": sim_seed},
            })

    def job(self, i):
        inp = self.inputs[i]
        argv = ["simulate", "--kind", "uniformity", "--r", str(self.r), "--sigma12", str(self.sigma12),
                "--reps", str(self.reps), "--n", str(self.n), "--p", str(self.p), "--seed", str(inp["seed"]),
                "--samples", str(self.draws["samples"]), "--burn-in", str(self.draws["burn_in"]),
                "--alpha", str(ALPHA), "--c0", str(C0), "--out", inp["out"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"simulate exited with {rc}: {err.getvalue().strip()}")
        with open(inp["out"]) as fh:
            return fh.read() + err.getvalue()

    def branch(self, text):
        return f"screen passed in {self._parse(text)[0]['passing_rate']:.3f} of reps"

    @staticmethod
    def _parse(text):
        csv_part, _, summary = text.partition("{")
        rows = csv_part.strip().splitlines()[1:]
        pvals = np.array([float(row.split(",")[0]) for row in rows])
        return json.loads("{" + summary), pvals

    def check(self, i, text):
        summary, _ = self._parse(text)
        self.inputs[i]["info"].update(
            {key: summary[key] for key in ("passing_rate", "conditional_coverage", "naive_coverage")}
        )
        if summary["kind"] != "uniformity" or summary["reps"] != self.reps:
            return [f"unexpected summary {summary}"]
        return []

    def check_run(self, texts):
        return checks.check_coverage([self._parse(t) for t in texts.values()], ALPHA)


WORKLOADS = {cls.name: cls for cls in (TslsPass, ClrFailLargeN, LassoSelect, UniformityStudy)}
