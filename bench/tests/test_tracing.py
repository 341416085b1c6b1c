"""Span arithmetic and the install/uninstall contract of the tracer."""

import inspect
import sys

import numpy as np
import pytest

import ivselect
import ivselect.cli  # noqa: F401  (load every module the tracer rebinds)
import tracing


def _snapshot():
    objs = {}
    for name, mod in list(sys.modules.items()):
        if name == "ivselect" or name.startswith("ivselect."):
            for attr, obj in vars(mod).items():
                objs[(name, attr)] = obj
    objs[("ConditionalLaw", "__post_init__")] = vars(ivselect.sampler.ConditionalLaw)["__post_init__"]
    return objs


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.main", "cli", 0.0, 10.0, -1, 0],
        ["sampler.invert_ci", "sampler", 1.0, 4.0, 0, 0],
        ["model.require_prepared", "model", 2.0, 3.0, 1, 0],
        ["report.plain", "report", 5.0, 9.0, 0, 0],
        ["report.plain", "report", 6.0, 8.5, 3, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.5, 2.5]


def test_job_split_adds_up_to_job_time():
    spans = [
        ["cli.main", "cli", 0.5, 10.0, -1, 0],
        ["sampler._pooled_pvalues", "sampler", 1.0, 4.0, 0, 0],
        ["sampler._gibbs_gaussian", "sampler", 1.5, 3.5, 1, 0],
        ["model.require_prepared", "model", 5.0, 6.0, 0, 0],
        ["sampler._gibbs_gaussian", "sampler", 6.5, 7.0, 0, 0],
    ]
    m = tracing.job_metrics(spans, tracing.Counters(), 11.0)
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert selfs + m["trace.other_s"] == pytest.approx(11.0)
    assert m["trace.other_s"] == pytest.approx(1.5)
    # nested engine spans count once
    assert m["sampler.engine_s"] == pytest.approx(3.5)
    assert m["model.require_prepared_calls"] == 1
    assert m["model.calls"] == 1


def test_split_by_job_reindexes_parents():
    spans = [
        ["a", "cli", 0.0, 1.0, -1, 1],
        ["b", "model", 0.2, 0.4, 0, 1],
        ["a", "cli", 2.0, 3.0, -1, 3],
        ["b", "model", 2.2, 2.4, 2, 3],
    ]
    jobs = tracing.split_by_job(spans)
    assert [s[4] for s in jobs[3]] == [-1, 0]


def test_install_then_uninstall_restores_every_object():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # a name imported into another module is rebound there too
        assert ivselect.cli.invert_ci is not before[("ivselect.cli", "invert_ci")]
        assert ivselect.simulate._pooled_pvalues is not before[("ivselect.simulate", "_pooled_pvalues")]
        assert ivselect.sampler._logf_d is not before[("ivselect.sampler", "_logf_d")]
        assert ivselect.invert_ci is ivselect.sampler.invert_ci
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_calls_record_nested_spans_and_counts():
    from ivselect.simulate import dgp_from_r, generate

    data = generate(dgp_from_r(0.5, 0.5, n=200, p=3, seed=1))
    tracer = tracing.Tracer()
    tracer.job = 0
    tracer.install()
    try:
        ivselect.teststats.ar_stat(data, 1.0)
        law = ivselect.sampler.ConditionalLaw(
            w_t=1.0, w_st=np.zeros(3), o=np.zeros(3), u=np.array([1.0, 0.0, 0.0]), lam=1.0,
            g_log_density=lambda x: 0.0, jacobian_exponent=2, gaussian_scale=None, t_obs=0.0, d_obs=1.0,
        )
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "teststats.ar_stat"
    child = names.index("model.require_prepared")
    assert tracer.spans[child][4] == 0
    assert tracer.counters[0]["sampler.ConditionalLaw.__post_init__"] == 1
    assert law.d_obs == 1.0


def test_missing_entry_point_is_skipped(monkeypatch):
    monkeypatch.setitem(tracing.ENTRY_POINTS, "sampler", ("_pooled_pvalues", "_no_such_engine"))
    monkeypatch.setitem(tracing.COUNT_ONLY, "sampler", ("_no_such_helper", "NoSuchClass.__post_init__"))
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert all(_snapshot()[k] is v for k, v in before.items())
    m = tracing.job_metrics([], tracing.Counters(), 1.0)
    assert m["sampler.logf_evals_per_sweep"] == 0 and m["sampler.laws_built"] == 0


def test_wrappers_keep_signatures():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = ivselect.sampler.invert_ci
        assert inspect.signature(wrapped) == inspect.signature(wrapped.__wrapped__)
    finally:
        tracer.uninstall()
