"""Spans and counters recorded from outside ivselect, for the traced run.

A Tracer rebinds functions of the ivselect modules to thin wrappers.
Each wrapped call appends one span (name, layer, start, end, parent,
job) to an in-memory list; a few hot helpers are only counted, so the
split stays close to the untraced run.  The layer of a span is the
module that defines the function.  Nothing inside ivselect changes:
uninstall() puts every original object back.
"""

import functools
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("cli", "model", "pretest", "teststats", "sampler", "clr", "lasso", "report", "simulate")

# Private functions the public ones dispatch to.  Without spans on them
# the engine time would land in the caller, e.g. in report.self_s,
# because the p-value callback runs inside invert_pvalue_curve.
ENTRY_POINTS = {
    "sampler": ("_pooled_pvalues", "_gibbs_gaussian"),
    "lasso": ("_pooled_lasso_pvalues", "_gibbs_linear_gaussian"),
    "clr": ("_tail_integrals",),
}

# Called tens of thousands of times per job: a span each would distort
# the split, so these are counted only.
COUNT_ONLY = {
    "sampler": ("_logf_d", "ConditionalLaw.__post_init__"),
}

SAMPLER_ENGINE = ("sampler._pooled_pvalues", "sampler._gibbs_gaussian")
LASSO_ENGINE = ("lasso._pooled_lasso_pvalues", "lasso._gibbs_linear_gaussian")

# name, unit, better.  Every traced run reports all of them; a layer a
# workload never enters reads 0.
PER_LAYER = (
    ("cli.ingest_s", "s", "lower"),
    ("cli.ingest_rows", "count", "higher"),
    ("cli.ingest_mb", "MB", "higher"),
    ("cli.self_s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("model.calls", "count", "lower"),
    ("model.require_prepared_calls", "count", "lower"),
    ("model.require_prepared_s", "s", "lower"),
    ("model.prepare_s", "s", "lower"),
    ("pretest.self_s", "s", "lower"),
    ("teststats.self_s", "s", "lower"),
    ("teststats.calls", "count", "lower"),
    ("sampler.self_s", "s", "lower"),
    ("sampler.engine_s", "s", "lower"),
    ("sampler.laws_built", "count", "lower"),
    ("sampler.rows", "count", "lower"),
    ("sampler.sweeps", "count", "lower"),
    ("sampler.sweeps_per_s", "1/s", "higher"),
    ("sampler.logf_evals_per_sweep", "count", "lower"),
    ("sampler.ess_per_draw", "ratio", "higher"),
    ("clr.self_s", "s", "lower"),
    ("clr.tail_calls", "count", "lower"),
    ("clr.integrals_per_tail", "ratio", "lower"),
    ("clr.underflow_points", "count", "lower"),
    ("lasso.self_s", "s", "lower"),
    ("lasso.penalty_s", "s", "lower"),
    ("lasso.solve_s", "s", "lower"),
    ("lasso.engine_s", "s", "lower"),
    ("lasso.laws_built", "count", "lower"),
    ("lasso.sweeps_per_s", "1/s", "higher"),
    ("report.self_s", "s", "lower"),
    ("report.grid_points", "count", "lower"),
    ("report.expansion_rounds", "count", "lower"),
    ("report.pvalue_fn_calls", "count", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.passing_reps", "count", "higher"),
    ("trace.job_s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _gibbs_work(prefix, state_arg):
    def probe(fn, args, kwargs, result, counters):
        a = _bound(fn, args, kwargs)
        rows = int(a[state_arg].shape[0])
        iters = int(a["n_samples"]) + int(a["burn_in"])
        counters[prefix + ".rows"] += rows
        counters[prefix + ".iterations"] += iters
        counters[prefix + ".sweeps"] += rows * iters
    return probe


def _ingest(fn, args, kwargs, result, counters):
    counters["cli.ingest_rows"] += result.n
    counters["cli.ingest_mb"] += os.path.getsize(_bound(fn, args, kwargs)["path"]) / 1e6


def _grid(fn, args, kwargs, result, counters):
    info = result[3]
    counters["report.grid_points"] += info["grid_size"]
    counters["report.expansion_rounds"] += info["expansion_rounds"]


def _ess(fn, args, kwargs, result, counters):
    diag = result.diagnostics
    counters["sampler.ess"] += diag["ess"]
    counters["sampler.retained_draws"] += diag["chains"] * diag["n_samples"]


def _underflow(fn, args, kwargs, result, counters):
    counters["clr.underflow_points"] += result.diagnostics["mass_underflow_points"]


def _passing(fn, args, kwargs, result, counters):
    counters["simulate.passing_reps"] += result.pvalue_samples.size


# Read documented fields of a call's arguments or result.  A probe whose
# fields are gone after a refactor records nothing.
PROBES = {
    "cli.ingest": _ingest,
    "report.invert_pvalue_curve": _grid,
    "sampler.invert_ci": _ess,
    "sampler._gibbs_gaussian": _gibbs_work("sampler", "a"),
    "lasso._gibbs_linear_gaussian": _gibbs_work("lasso", "cols"),
    "clr.clr_conditional_inference": _underflow,
    "simulate.uniformity_experiment": _passing,
}
_PROBE_ERRORS = (AttributeError, KeyError, IndexError, TypeError, ValueError, OSError)


class Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Installs span and counting wrappers on the ivselect modules.

    spans holds [name, layer, start, end, parent index, job id] lists in
    call order; counters maps each job id to its Counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counters = {}
        self._restore = []

    def job_counters(self):
        return self.counters.setdefault(self.job, Counters())

    def _span_wrapper(self, name, layer, fn):
        tracer = self
        probe = PROBES.get(name)

        def counting_pfn(pfn):
            def wrapped(xs):
                tracer.job_counters()["report.pvalue_fn_calls"] += 1
                return pfn(xs)
            return wrapped

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "report.invert_pvalue_curve" and args:
                args = (counting_pfn(args[0]),) + args[1:]
            spans = tracer.spans
            idx = len(spans)
            spans.append([name, layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.job])
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                spans[idx][2] = start
                spans[idx][3] = end
            if probe is not None:
                try:
                    probe(fn, args, kwargs, result, tracer.job_counters())
                except _PROBE_ERRORS:
                    pass
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.job_counters()[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every public module-level function of each layer plus the
        listed entry points, and rebind each one wherever an ivselect
        module imported it by name.  Missing names are skipped."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        replace = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules.get(f"ivselect.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if own and (not attr.startswith("_") or attr in ENTRY_POINTS.get(layer, ())):
                    replace[id(obj)] = self._span_wrapper(f"{layer}.{attr}", layer, obj)
            for qual in COUNT_ONLY.get(layer, ()):
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                obj = vars(owner).get(attr) if owner is not None else None
                if obj is None:
                    continue
                wrapper = self._count_wrapper(f"{layer}.{qual}", obj)
                if owner_name:
                    self._restore.append((owner, attr, obj))
                    setattr(owner, attr, wrapper)
                else:
                    replace[id(obj)] = wrapper
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ivselect" or modname.startswith("ivselect.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap
    and their durations add."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - child[i] for i, span in enumerate(spans)]


def _outermost(spans, names):
    """Total duration of spans named in names that have no such ancestor."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[4]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][4]
        if parent < 0:
            total += span[3] - span[2]
    return total


def job_metrics(spans, counters, job_s):
    """Per-layer metrics of one traced job.

    spans are the job's spans with parent indices into the same list;
    job_s is the job's wall time measured around the call.  The layer
    self times plus trace.other_s add up to job_s."""
    selfs = self_times(spans)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    calls = Counters()
    for span, own in zip(spans, selfs):
        out[f"{span[1]}.self_s"] = out.get(f"{span[1]}.self_s", 0.0) + own
        calls[span[1]] += 1
        calls[span[0]] += 1

    def inclusive(name):
        return sum(s[3] - s[2] for s in spans if s[0] == name)

    out["trace.job_s"] = job_s
    out["trace.other_s"] = job_s - sum(s[3] - s[2] for s in spans if s[4] < 0)
    out["cli.ingest_s"] = inclusive("cli.ingest")
    out["model.calls"] = calls["model"]
    out["model.require_prepared_calls"] = calls["model.require_prepared"]
    out["model.require_prepared_s"] = inclusive("model.require_prepared")
    out["model.prepare_s"] = inclusive("model.prepare")
    out["teststats.calls"] = calls["teststats"]
    out["sampler.engine_s"] = _outermost(spans, SAMPLER_ENGINE)
    out["sampler.laws_built"] = counters["sampler.ConditionalLaw.__post_init__"]
    out["sampler.rows"] = counters["sampler.rows"]
    out["sampler.sweeps"] = counters["sampler.sweeps"]
    gibbs_s = _outermost(spans, ("sampler._gibbs_gaussian",))
    out["sampler.sweeps_per_s"] = counters["sampler.sweeps"] / gibbs_s if gibbs_s > 0 else 0.0
    iters = counters["sampler.iterations"]
    out["sampler.logf_evals_per_sweep"] = counters["sampler._logf_d"] / iters if iters else 0.0
    draws = counters["sampler.retained_draws"]
    out["sampler.ess_per_draw"] = counters["sampler.ess"] / draws if draws else 0.0
    out["clr.tail_calls"] = calls["clr.clr_tail"]
    tails = calls["clr.clr_tail"]
    out["clr.integrals_per_tail"] = calls["clr._tail_integrals"] / tails if tails else 0.0
    out["clr.underflow_points"] = counters["clr.underflow_points"]
    out["lasso.penalty_s"] = inclusive("lasso.default_lasso_penalty")
    out["lasso.solve_s"] = inclusive("lasso.solve_randomized_lasso")
    out["lasso.engine_s"] = _outermost(spans, LASSO_ENGINE)
    out["lasso.laws_built"] = calls["lasso.build_law_lasso"]
    lgibbs_s = _outermost(spans, ("lasso._gibbs_linear_gaussian",))
    out["lasso.sweeps_per_s"] = counters["lasso.sweeps"] / lgibbs_s if lgibbs_s > 0 else 0.0
    for name in ("report.grid_points", "report.expansion_rounds", "report.pvalue_fn_calls",
                 "cli.ingest_rows", "cli.ingest_mb", "simulate.passing_reps"):
        out[name] = counters[name]
    return out


def split_by_job(spans):
    """{job: spans of that job, parents re-indexed within the job}."""
    jobs = {}
    index = {}
    for i, span in enumerate(spans):
        own = jobs.setdefault(span[5], [])
        index[i] = len(own)
        parent = index[span[4]] if span[4] >= 0 else -1
        own.append([span[0], span[1], span[2], span[3], parent, span[5]])
    return jobs
