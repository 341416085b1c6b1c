"""Benchmark of ivselect: time per analysis on four workloads.

    python3 bench/run.py --workload tsls-pass --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; ivselect is imported from ./src.  One
process, one BLAS thread, jobs back to back (a closed loop with one
caller) until --seconds have passed and at least the workload's minimum
number of jobs has run.  Inputs are generated from --seed before the
clock starts, and every answer is checked afterwards (checks.py).

--trace 0 prints the end-to-end metrics:

  job_s.p50    median CPU seconds per job, rescaled to a fixed host speed
  setup_s      median CPU seconds of three fresh-process imports of
               ivselect.cli, rescaled to a fixed host speed
  peak_rss_mb  peak resident memory of this process

The speed of a shared host drifts by up to half within a minute, so wall
times of runs made minutes apart spread by 10-30% around their median.
Each time is therefore the CPU time t of this process (of the import's
child for setup_s), reported as t * PROBE_REF_S / p, with p the mean CPU
time of a light fixed loop that a second process (speed.py) runs over
the same interval: CPU seconds on a host where that loop takes
PROBE_REF_S.  A change to ivselect leaves the loop alone, so it moves
these numbers as it moves the work of a job.  With one BLAS thread and
one process a job's CPU time is its wall time less the waits for a core;
work a change moved into other threads or processes would not be counted
fairly.  Wall seconds are printed on the line before the result.

--trace 1 alternates untraced and traced jobs on each input and prints
the per-layer split in raw seconds (tracing.py); the spans are written to
.bench_work/.  Generated inputs live in .bench_work/run-<pid>/ while the
run lasts.  The last stdout line is the result object; the line before
it records the inputs, wall and CPU job times, probe times and the
error rate.
Which layer metric should move which end-to-end metric on which workload
is written down in bench/layers.json.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import speed
import tracing

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("tsls-pass", "clr-fail-large-n", "lasso-select", "uniformity-study")
SETUP_SAMPLES = 3
PROBE_REF_S = 0.0006
IMPORT_PROBE = (
    "import time; c = time.process_time(); import ivselect.cli; "
    "print(time.process_time() - c); print(ivselect.cli.__file__)"
)


def import_seconds(src, env):
    """CPU seconds a fresh interpreter spends importing ivselect.cli."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(src):
        raise RuntimeError(f"imported ivselect from {path}, not from {src}")
    return float(seconds)


def run_jobs(wl, seconds, trace, tracer, probe):
    """Jobs back to back; in trace mode each input runs untraced then
    traced.  One record per job, with its wall and CPU time and the probe
    loop time over the job."""
    records = []
    start = perf_counter()
    min_jobs = 2 * wl.distinct if trace else wl.min_jobs
    while len(records) < min_jobs or perf_counter() - start < seconds:
        j = len(records)
        i, traced = ((j // 2) % wl.distinct, j % 2 == 1) if trace else (j % wl.distinct, False)
        if traced:
            tracer.job = j
            tracer.install()
        t0 = perf_counter()
        c0 = process_time()
        try:
            text, error = wl.job(i), None
        except Exception:  # a failed job is counted, and the run goes on
            text, error = None, traceback.format_exc()
        elapsed = perf_counter() - t0
        cpu = process_time() - c0
        if traced:
            tracer.uninstall()
        if error:
            print(f"job {j} on input {i} failed:\n{error}", file=sys.stderr)
        records.append({"job": j, "input": i, "traced": traced, "s": elapsed,
                        "cpu": cpu, "probe": probe.loop_seconds(t0, t0 + elapsed), "text": text, "ok": error is None})
    return records


def check_answers(wl, records):
    """Mark every job whose answer fails a check.  Repeats of one input
    must be byte-identical; each input's answer is checked once; a
    run-level check that fails marks every job."""
    texts = {}
    for i in range(wl.distinct):
        jobs = [r for r in records if r["input"] == i and r["ok"]]
        if not jobs:
            continue
        problems = []
        if any(r["text"] != jobs[0]["text"] for r in jobs):
            problems.append("repeated jobs gave different reports")
        try:
            problems += wl.check(i, jobs[0]["text"])
        except Exception:  # an answer the check cannot read is wrong
            problems.append(traceback.format_exc())
        if problems:
            print(f"input {i}: " + "; ".join(problems), file=sys.stderr)
            for r in jobs:
                r["ok"] = False
        else:
            texts[i] = jobs[0]["text"]
    try:
        run_problems = wl.check_run(texts) if len(texts) == wl.distinct else []
    except Exception:
        run_problems = [traceback.format_exc()]
    if run_problems:
        print("run: " + "; ".join(run_problems), file=sys.stderr)
        for r in records:
            r["ok"] = False


def layer_metrics(tracer, records):
    """Per-layer metrics averaged over the traced jobs, and the largest
    gap between a job's time and its self times plus remainder."""
    by_job = tracing.split_by_job(tracer.spans)
    traced = [r for r in records if r["traced"]]
    per_job = [
        tracing.job_metrics(by_job.get(r["job"], []), tracer.counters.get(r["job"], tracing.Counters()), r["s"])
        for r in traced
    ]
    out = {name: statistics.fmean(m[name] for m in per_job) for name, _, _ in tracing.PER_LAYER}
    untraced = {r["input"]: r["s"] for r in records if not r["traced"]}
    out["trace.overhead_s"] = statistics.fmean(r["s"] - untraced[r["input"]] for r in traced)
    residual = max(
        abs(sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.other_s"] - m["trace.job_s"])
        for m in per_job
    )
    return {name: {"value": out[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}, residual


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "ivselect" / "__init__.py").is_file():
        print(f"error: no ivselect sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=str(src))
    outdir = root / ".bench_work"
    workdir = outdir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with speed.SpeedProbe() as probe:
            setup = []
            for _ in range(SETUP_SAMPLES):
                t0 = perf_counter()
                seconds = import_seconds(src, env)
                setup.append((seconds, probe.loop_seconds(t0, perf_counter())))

            sys.path.insert(0, str(src))
            import workloads

            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            tracer = tracing.Tracer()
            records = run_jobs(wl, args.seconds, args.trace == 1, tracer, probe)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_answers(wl, records)
    finally:
        shutil.rmtree(workdir)

    failed = sum(not r["ok"] for r in records)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": [inp["info"] for inp in wl.inputs],
        "branches": sorted({wl.branch(r["text"]) for r in records if r["text"]}),
        "jobs": len(records),
        "raw_job_s": [r["s"] for r in records],
        "cpu_job_s": [r["cpu"] for r in records],
        "probe_s": [r["probe"] for r in records],
        "cpu_setup_s": [t for t, _ in setup],
        "setup_probe_s": [p for _, p in setup],
        "error_rate": failed / len(records),
    }
    if args.trace:
        metrics, residual = layer_metrics(tracer, records)
        info["trace_split_residual_s"] = residual
        with open(outdir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "job"], "spans": tracer.spans}, fh)
    else:
        metrics = {
            "job_s.p50": {"value": statistics.median(r["cpu"] * PROBE_REF_S / r["probe"] for r in records), "unit": "s"},
            "setup_s": {"value": statistics.median(t * PROBE_REF_S / p for t, p in setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
