"""One run of one workload: reps, set-up samples, checks, metrics.

A measured run (``trace=False``) repeats set-up + timed region for as
long as ``seconds`` allows and reports the end-to-end metrics, shims
off.  A traced run does one untraced and one shimmed rep, the probes,
and reports the per-layer metrics; the difference between its two reps
is the shim overhead.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.obs.context import Observability

from benchmarks.spine import ROOT
from benchmarks.spine.checks import check_same
from benchmarks.spine.spans import SpanRecorder, durations_s, summarize
from benchmarks.spine.spec import PER_LAYER_NAMES
from benchmarks.spine.workloads import REGISTRY, Rep, Traced, Workload

#: Scratch space inside the checkout (checkpoint slots, cluster roots);
#: each run's directory is removed when the run ends.
TMP_PARENT = ROOT / ".spine_tmp"

#: A set-up cheaper than this is rebuilt until three samples exist.
_CHEAP_SETUP_S = 0.5
_SETUP_SAMPLES = 3


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _peak_rss_mb() -> float:
    """Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def _rep(workload: Workload, obs=None, recorder=None):
    """Set-up, timed region, summary -> (rep, setup_s, wall_s)."""
    state, setup_s = _timed(workload.prepare, obs)
    if recorder is not None:
        recorder.wrap_all(workload.targets(state))
    try:
        outcome, wall_s = _timed(workload.run, state)
    finally:
        if recorder is not None:
            recorder.remove()
    return workload.summarize(state, outcome), setup_s, wall_s


def _measure(workload: Workload, seconds: float, import_s: float):
    reps, setups, walls = [], [], []
    while True:
        rep, setup_s, wall_s = _rep(workload)
        reps.append(rep)
        setups.append(setup_s)
        walls.append(wall_s)
        # Another rep only if it is expected to end inside the budget.
        if sum(walls) + statistics.median(walls) > seconds:
            break
    if not workload.rebuilds_setup:
        setups = setups[:1]
    else:
        while (
            len(setups) < _SETUP_SAMPLES
            and statistics.median(setups) < _CHEAP_SETUP_S
        ):
            setups.append(_timed(workload.prepare, None)[1])
    rates = [rep.work / wall for rep, wall in zip(reps, walls)]
    metrics = {
        "work_per_s": statistics.median(rates),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "kept_frac": reps[-1].kept_frac,
    }
    detail = {
        "reps": len(reps),
        "rep_wall_s": walls,
        "work_per_s_min": min(rates),
        "work_per_s_max": max(rates),
        "steps_per_s": statistics.median(
            rep.steps / wall for rep, wall in zip(reps, walls)
        ),
        "import_s": import_s,
        "setup_samples_s": setups,
    }
    return reps, metrics, detail


def _span_layers(recorder: SpanRecorder, rep: Rep) -> dict[str, float]:
    rows = summarize(recorder.spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, zero)

    def median_ms(name):
        values = durations_s(recorder.spans, name)
        return 1e3 * statistics.median(values) if values else 0.0

    opens = row("middleware.open")["calls"]
    remaps = row("core.pgos.remap")["calls"]
    advance_self = row("middleware.advance")["self_s"]
    return {
        "workload.driver_self_s": row("workload.driver")["self_s"],
        "middleware.open_calls": opens,
        "middleware.open_s": row("middleware.open")["total_s"],
        "middleware.open_self_s": row("middleware.open")["self_s"],
        "middleware.close_calls": row("middleware.close")["calls"],
        "middleware.close_s": row("middleware.close")["total_s"],
        "middleware.advance_s": row("middleware.advance")["total_s"],
        "middleware.advance_self_s": advance_self,
        "middleware.reject_frac": (
            recorder.errors["middleware.open"] / opens if opens else 0.0
        ),
        "core.pgos.remap_calls": remaps,
        "core.pgos.remap_s": row("core.pgos.remap")["total_s"],
        "core.pgos.remap_useful_frac": (
            rep.remaps / remaps if remaps else 0.0
        ),
        "core.pgos.observe_calls": row("core.pgos.observe")["calls"],
        "core.pgos.observe_s": row("core.pgos.observe")["total_s"],
        "core.pgos.other_s": row("core.pgos.other")["total_s"],
        "robustness.health_calls": row("robustness.health")["calls"],
        "robustness.health_s": row("robustness.health")["total_s"],
        "checkpoint.save_calls": row("checkpoint.save")["calls"],
        "checkpoint.save_ms": median_ms("checkpoint.save"),
        "checkpoint.load_ms": median_ms("checkpoint.load"),
        "cluster.job_s": row("cluster.job")["total_s"],
    }


def _trace(workload: Workload, import_s: float):
    plain, _, plain_wall = _rep(workload)
    recorder = SpanRecorder()
    traced, _, traced_wall = _rep(workload, recorder=recorder)
    reps = [plain, traced]
    problems = workload.verify(reps, trace=True)

    spans = _span_layers(recorder, traced)
    layers = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    layers.update(spans)
    layers.update(traced.exact)
    layers.update(traced.layers)
    layers.update(
        workload.probes(Traced(plain_wall, traced_wall, traced, spans))
    )
    layers["bench.traced_wall_s"] = traced_wall
    layers["bench.spans"] = len(recorder.spans)
    layers["bench.shim_overhead_frac"] = (
        (traced_wall - plain_wall) / plain_wall
    )
    if workload.obs_rep:
        obs = Observability()
        observed, _, observed_wall = _rep(workload, obs=obs)
        reps.append(observed)
        layers["obs.trace_overhead_frac"] = (
            (observed_wall - plain_wall) / plain_wall
        )
        layers["obs.events"] = obs.trace.emitted
    metrics = {name: layers[name] for name in PER_LAYER_NAMES}
    detail = {
        "reps": len(reps),
        "rep_wall_s": [plain_wall, traced_wall],
        "import_s": import_s,
    }
    return reps, metrics, detail, problems


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, import_s: float
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns (contract result, free-form detail)."""
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_PARENT))
    workload = REGISTRY[name](seed, tmp)
    try:
        if trace:
            reps, metrics, detail, problems = _trace(workload, import_s)
        else:
            reps, metrics, detail = _measure(workload, seconds, import_s)
            problems = workload.verify(reps, trace=False)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run's directory is still in there
    for rep in reps:
        problems += rep.problems
    problems += check_same(
        "reps of one input", [rep.digest for rep in reps]
    )
    failed = sum(rep.failed for rep in reps)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(rep.ops for rep in reps),
        "failed": failed,
        "metrics": metrics,
    }
    detail.update(
        workload=name,
        seed=seed,
        load_factor=workload.load,
        trace=int(trace),
        digest=reps[-1].digest,
        exact=reps[-1].exact,
        problems=problems,
    )
    return result, detail
