"""Self-test of the benchmark's own machinery (not of the program).

Run explicitly: ``python -m pytest benchmarks/spine -q``; ``testpaths``
keeps it out of tier-1.
"""

import copy
import json
import re

import pytest

from benchmarks.spine import ROOT
from benchmarks.spine.checks import check_conservation, check_report
from benchmarks.spine.report import compare, judge
from benchmarks.spine.spans import SpanRecorder, summarize
from benchmarks.spine.spec import (
    END_TO_END,
    PER_LAYER,
    WORKLOAD_NAMES,
    WORKLOADS,
    benchmark_json,
    load_factor,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_counts_respect_the_contract():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = [w.name for w in WORKLOADS]
    names += [m.name for m in END_TO_END + PER_LAYER]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("higher", "lower")
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
    for workload in WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
    setup = [m for m in END_TO_END if m.name == "setup_s"]
    assert [(m.unit, m.better) for m in setup] == [("s", "lower")]


def test_benchmark_json_and_harness_declare_the_same():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == benchmark_json(declared["run_seconds"])
    assert 1 <= declared["run_seconds"] <= 60


def test_every_workload_is_implemented():
    from benchmarks.spine.workloads import REGISTRY

    assert tuple(REGISTRY) == WORKLOAD_NAMES


def test_load_factor_is_pinned_at_seed_zero_and_bounded():
    assert load_factor(0) == 1.0
    factors = [load_factor(seed) for seed in range(200)]
    assert all(0.99 <= f <= 1.01 for f in factors)
    assert len(set(factors)) > 150
    assert load_factor(7) == load_factor(7)


def test_self_time_on_a_synthetic_span_tree():
    #  a [0, 100)
    #    b [10, 40)
    #      c [20, 30)
    #    b [50, 70)
    spans = [
        ["a", 0, 100, -1],
        ["b", 10, 40, 0],
        ["c", 20, 30, 1],
        ["b", 50, 70, 0],
    ]
    rows = summarize(spans)
    assert rows["a"] == {"calls": 1, "total_s": 100e-9, "self_s": 50e-9}
    assert rows["b"]["calls"] == 2
    assert rows["b"]["total_s"] == pytest.approx(50e-9)
    assert rows["b"]["self_s"] == pytest.approx(40e-9)
    assert rows["c"]["self_s"] == pytest.approx(10e-9)


class _Layer:
    def __init__(self):
        self.inner_calls = 0

    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        self.inner_calls += 1
        if i == 2:
            raise ValueError(i)
        return i


def test_shims_record_nesting_and_are_fully_removed():
    layer = _Layer()
    recorder = SpanRecorder()
    recorder.wrap_all(
        [(layer, "outer", "layer.outer"), (layer, "inner", "layer.inner")]
    )
    assert layer.outer(2) == 1
    with pytest.raises(ValueError):
        layer.outer(3)
    recorder.remove()
    assert layer.__dict__ == {"inner_calls": 5}
    assert layer.outer.__func__ is _Layer.outer
    rows = summarize(recorder.spans)
    assert rows["layer.outer"]["calls"] == 2
    assert rows["layer.inner"]["calls"] == 5
    assert recorder.errors == {"layer.inner": 1, "layer.outer": 1}
    parents = {span[3] for span in recorder.spans if span[0] == "layer.inner"}
    assert parents == {0, 3}
    assert rows["layer.outer"]["self_s"] <= rows["layer.outer"]["total_s"]


def test_shims_leave_a_real_service_clean():
    from benchmarks.spine.workloads import Churn

    workload = Churn(seed=0, tmp=None)
    driver, _ = state = workload.prepare()
    touched = [
        driver, driver.service, driver.service.scheduler,
    ]
    before = [dict(obj.__dict__) for obj in touched]
    recorder = SpanRecorder()
    recorder.wrap_all(workload.targets(state))
    assert "advance" in driver.service.__dict__
    recorder.remove()
    assert [dict(obj.__dict__) for obj in touched] == before


def _report():
    session = {"outcome": "admitted"}
    return {
        "offered": 3, "admitted": 2, "degraded": 0, "rejected": 1,
        "closed": 1, "truncated": 1, "shed_sessions": 0, "violations": 1,
        "violation_rate": round(2 / 3, 6),
        "tenants": {
            "gold": {"offered": 2, "admitted": 1, "degraded": 0,
                     "rejected": 1, "shed": 0, "violations": 1},
            "bronze": {"offered": 1, "admitted": 1, "degraded": 0,
                       "rejected": 0, "shed": 0, "violations": 0},
        },
        "sessions": [session, session, {"outcome": "rejected"}],
    }


def test_accounting_checker_accepts_a_sound_report():
    assert check_report(_report()) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: r.update(offered=4),
        lambda r: r.update(rejected=0),
        lambda r: r["tenants"]["gold"].update(admitted=2),
        lambda r: r.update(closed=2),
        lambda r: r.update(violation_rate=0.0),
        lambda r: r["sessions"].pop(),
    ],
)
def test_accounting_checker_rejects_a_doctored_report(doctor):
    report = _report()
    doctor(report)
    assert check_report(report)


def test_conservation_checker():
    import numpy as np

    paths = [np.array([5.0, 5.0]), np.array([3.0, 1.0])]
    assert check_conservation(np.array([8.0, 6.0]), paths) == []
    assert check_conservation(np.array([8.0, 6.1]), paths)


def _metric(name):
    return next(m for m in END_TO_END if m.name == name)


def test_judge_separates_regressed_unresolved_and_unchanged():
    rate = _metric("work_per_s")
    tight = {"value": 100.0, "min": 99.0, "max": 101.0}
    assert judge(rate, tight, {"value": 70.0, "min": 69.0, "max": 71.0}) == (
        "regressed"
    )
    assert judge(rate, tight, {"value": 98.0, "min": 97.0, "max": 99.5}) == (
        "unchanged"
    )
    wide = {"value": 98.0, "min": 70.0, "max": 110.0}
    assert judge(rate, tight, wide) == "unresolved"
    assert judge(rate, tight, {"value": 130.0, "min": 128.0, "max": 131.0}) == (
        "improved"
    )
    assert judge(rate, wide, {"value": 130.0, "min": 120.0, "max": 140.0}) == (
        "improved"
    )
    setup = _metric("setup_s")
    assert judge(setup, {"value": 1.0}, {"value": 1.3}) == "regressed"


def _entry(rate):
    metrics = {
        "work_per_s": {"value": rate, "min": rate, "max": rate},
        "setup_s": {"value": 1.0, "min": 1.0, "max": 1.0},
        "peak_rss_mb": {"value": 60.0},
        "kept_frac": {"value": 0.95},
    }
    layers = {m.name: {"value": 0.0, "unit": m.unit} for m in PER_LAYER}
    layers["sim.violation_rate"] = {"value": 0.05, "unit": "frac"}
    return {"correct": True, "end_to_end": metrics, "per_layer": layers}


def test_compare_demands_equal_exact_metrics():
    a = {"workloads": {name: _entry(100.0) for name in WORKLOAD_NAMES}}
    b = copy.deepcopy(a)
    assert compare(a, b)[1]
    b["workloads"]["churn"]["per_layer"]["sim.violation_rate"]["value"] = 0.06
    rows, ok = compare(a, b)
    assert not ok
    assert any("DIFFERS" in row for row in rows)
    c = copy.deepcopy(a)
    c["workloads"]["steady"]["end_to_end"]["work_per_s"]["value"] = 60.0
    assert not compare(a, c)[1]
