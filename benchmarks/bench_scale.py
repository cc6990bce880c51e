"""Scale benchmark: session churn throughput and 1k-concurrent stepping.

Two measurements, recorded to ``benchmarks/results/BENCH_scale.json``:

1. **Churn throughput** — the full ``baseline`` workload scenario
   (>= 1000 sessions arriving, living, and departing against the
   middleware).  The wall-clock sessions/sec and steps/sec are
   recorded with the report checksum; timing is telemetry.
2. **Concurrent population** — :meth:`IQPathsService.open_streams`
   stands up ``SCALE_BENCH_STREAMS`` (default 1000) streams in one
   batch admission decision, then the delivery loop advances 10 s of
   session time; steps/sec at that standing population is recorded.

Performance gating follows the repo convention: numbers are always
recorded, but the sessions/sec floor asserts only when
``SCALE_BENCH_GATE=1`` — shared CI runners measure the neighbours, not
the code.

Environment knobs:

* ``SCALE_BENCH_SESSIONS`` — truncate the churn plan (0 = full run;
  CI smoke uses a small count).
* ``SCALE_BENCH_STREAMS``  — concurrent-population size (default 1000).
* ``SCALE_BENCH_GATE``     — set to 1 to assert the sessions/sec floor.
* ``SCALE_BENCH_RECORD``   — set to 1 to (re)record the JSON baseline.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.fsutil import atomic_write_json
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.runner.spec import mix_seed
from repro.workload import (
    default_catalog,
    plan_concurrent_batch,
    run_scenario,
)

RESULTS_NAME = "BENCH_scale.json"

#: Churn throughput floor, asserted only under ``SCALE_BENCH_GATE=1``.
#: The recorded baseline sustains ~95 sessions/s; 30 is deliberately
#: slack so only a real regression (not scheduler noise) trips it.
MIN_SESSIONS_PER_SEC = 30.0

MAX_SESSIONS = int(os.environ.get("SCALE_BENCH_SESSIONS", "0"))
N_STREAMS = int(os.environ.get("SCALE_BENCH_STREAMS", "1000"))

#: Session seconds the concurrent-population measurement advances.
ADVANCE_S = 10.0


def _update_results(results_dir: Path, section: str, measurement: dict):
    """Merge one section's measurement into the shared results file."""
    results_path = results_dir / RESULTS_NAME
    if results_path.exists():
        data = json.loads(results_path.read_text(encoding="utf-8"))
    else:
        data = {"schema": 1}
    entry = data.get(section)
    record = os.environ.get("SCALE_BENCH_RECORD") == "1"
    if entry is None or record:
        entry = {"baseline": measurement, "latest": measurement}
    else:
        entry["latest"] = measurement
    data[section] = entry
    atomic_write_json(results_path, data)


def test_churn_throughput(results_dir: Path):
    max_sessions = MAX_SESSIONS if MAX_SESSIONS > 0 else None

    t0 = time.perf_counter()
    report = run_scenario("baseline", seed=0, max_sessions=max_sessions)
    wall_s = time.perf_counter() - t0
    if max_sessions is None:
        assert report.offered >= 1000, (
            f"full baseline offered only {report.offered} sessions"
        )

    steps = int(round(report.duration / report.dt))
    sessions_per_sec = report.offered / wall_s
    measurement = {
        "scenario": "baseline",
        "seed": 0,
        "max_sessions": MAX_SESSIONS,
        "offered": report.offered,
        "peak_concurrent": report.peak_concurrent,
        "wall_s": round(wall_s, 3),
        "sessions_per_sec": round(sessions_per_sec, 2),
        "steps_per_sec": round(steps / wall_s, 2),
        "checksum": report.checksum(),
    }
    _update_results(results_dir, "churn", measurement)

    if os.environ.get("SCALE_BENCH_GATE") == "1":
        assert sessions_per_sec >= MIN_SESSIONS_PER_SEC, (
            f"churn throughput regressed: {sessions_per_sec:.1f} "
            f"sessions/s < {MIN_SESSIONS_PER_SEC}"
        )


def test_concurrent_population(results_dir: Path):
    specs = plan_concurrent_batch(default_catalog(), N_STREAMS, seed=0)
    realization = make_figure8_testbed().realize(
        seed=mix_seed(0, "bench-scale-concurrent"),
        duration=10.0 + ADVANCE_S + 5.0,
        dt=0.1,
    )
    # Lenient admission: N_STREAMS will not all fit the overlay's
    # guarantee budget, and this measurement is about stepping cost at a
    # standing population, not about admission verdicts.
    service = IQPathsService(
        realization, warmup_intervals=100, strict_admission=False
    )

    t0 = time.perf_counter()
    handles = service.open_streams(specs)
    open_s = time.perf_counter() - t0
    assert len(handles) == N_STREAMS
    assert all(h.open for h in handles)
    ids = [h.stream_id for h in handles]
    assert ids == sorted(ids) and len(set(ids)) == N_STREAMS

    t0 = time.perf_counter()
    service.advance(ADVANCE_S)
    wall_s = time.perf_counter() - t0
    steps = int(round(ADVANCE_S / service.dt))

    delivered_total = sum(
        r.mean_mbps for r in service.reports().values()
    )
    assert delivered_total > 0.0, "no stream delivered anything"

    measurement = {
        "streams": N_STREAMS,
        "open_s": round(open_s, 3),
        "advance_s": ADVANCE_S,
        "steps": steps,
        "wall_s": round(wall_s, 3),
        "steps_per_sec": round(steps / wall_s, 2),
        "delivered_mbps_total": round(delivered_total, 2),
    }
    _update_results(results_dir, "concurrent", measurement)
