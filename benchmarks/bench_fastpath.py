"""Fast-path microbenchmarks: the "full bandwidth utilization" claim.

The paper argues PGOS "has sufficiently low runtime overheads to satisfy
the needs of even high bandwidth wide area network links".  At 1500-byte
packets, a 100 Mbps link carries ~8.3k packets/s and a 1 Gbps link ~83k.
These benches measure, at Python speed:

* packets dispatched per second through the V_P/V_S fast path;
* scheduling-vector compilation cost (the slow path, run only on remaps);
* the per-interval fluid allocation (PGOS allocate + water_fill).
"""

import json
import os
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.core.mapping import compute_mapping
from repro.fsutil import atomic_write_json
from repro.core.pgos import PGOSScheduler, dispatch_window, make_packet_queue
from repro.core.scheduler import water_fill
from repro.core.spec import StreamSpec
from repro.core.vectors import build_schedule
from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF
from repro.transport.backoff import ExponentialBackoff
from repro.transport.service import PathService

PKT = 1500


def _schedule(n_packets: int):
    per_stream = n_packets // 2
    return build_schedule(
        {
            "crit": {"A": per_stream},
            "data": {"A": per_stream // 2, "B": per_stream // 2},
        },
        tw=1.0,
        stream_order=["crit", "data"],
        path_order=["A", "B"],
    )


def _dispatch_once(schedule, n_packets):
    queues = {
        "crit": make_packet_queue("crit", n_packets // 2, 1.0, PKT),
        "data": make_packet_queue("data", n_packets // 2, 1.0, PKT),
    }
    services = {}
    for name in ("A", "B"):
        svc = PathService(
            name, backoff=ExponentialBackoff(base_delay=10.0, max_delay=10.0)
        )
        svc.begin_interval(0.0, 1e12)
        services[name] = svc
    return dispatch_window(schedule, services, queues)


def test_dispatch_throughput(benchmark):
    """Packets/second through the Table-1 fast path (one 8k-pkt window)."""
    n = 8000  # one second of a saturated 100 Mbps link
    schedule = _schedule(n)
    result = benchmark(lambda: _dispatch_once(schedule, n))
    assert result.sent_total("crit") == n // 2
    # The claim: dispatching one second's packets takes well under one
    # second even in pure Python (so the scheduler is not the bottleneck
    # at the paper's link rates).
    assert benchmark.stats["mean"] < 1.0


def test_schedule_compilation(benchmark):
    """Cost of rebuilding V_P/V_S on a remap (paper: runs rarely)."""
    rng = np.random.default_rng(1)
    cdfs = {
        "A": EmpiricalCDF(np.clip(50 + 4 * rng.standard_normal(1000), 0, None)),
        "B": EmpiricalCDF(np.clip(30 + 9 * rng.standard_normal(1000), 0, None)),
    }
    specs = [
        StreamSpec(name="crit", required_mbps=20.0, probability=0.95),
        StreamSpec(name="data", required_mbps=10.0, probability=0.90),
        StreamSpec(name="bulk", elastic=True, nominal_mbps=30.0),
    ]

    def remap():
        mapping = compute_mapping(specs, cdfs, tw=1.0)
        return mapping.compile(
            stream_order=["crit", "data", "bulk"], path_order=["A", "B"]
        )

    schedule = benchmark(remap)
    assert schedule.total_packets > 0


def test_monitor_update_rate(benchmark):
    """Sliding-window CDF updates/s: monitoring's per-sample cost."""
    window = SlidingWindowCDF(window=500)
    rng = np.random.default_rng(3)
    samples = (50 + 5 * rng.standard_normal(2000)).tolist()

    def feed():
        for s in samples:
            window.update(s)
        return window.snapshot().percentile(10)

    result = benchmark(feed)
    assert result > 0
    # 2000 samples = 200 s of monitoring at 0.1 s intervals; it must cost
    # a tiny fraction of that.
    assert benchmark.stats["mean"] < 0.1


#: Required speedup of the windowed update+query cycle at W=500 over
#: re-sorting the window per query.  The incremental window measures ~7×
#: here; 5× leaves slack for noisy boxes.
CDF_MIN_SPEEDUP = 5.0

#: Window size and cycle count of the windowed CDF bench.
CDF_BENCH_WINDOW = 500
CDF_BENCH_CYCLES = int(os.environ.get("CDF_BENCH_CYCLES", "2500"))

CDF_RESULTS_NAME = "BENCH_cdf.json"


class _ResortWindow:
    """The seed's window: a deque re-sorted into an ``EmpiricalCDF`` on
    the first query after each update — the baseline of the speedup."""

    def __init__(self, window: int):
        self._buffer: deque = deque(maxlen=window)
        self._cached = None

    def update(self, sample: float) -> None:
        self._buffer.append(float(sample))
        self._cached = None

    def __getattr__(self, query: str):
        if self._cached is None:
            self._cached = EmpiricalCDF(self._buffer)
        return getattr(self._cached, query)


def _windowed_cycle(make_window, samples) -> tuple[float, float]:
    """Time the monitoring hot loop; returns (seconds, query checksum)."""
    swc = make_window(window=CDF_BENCH_WINDOW)
    warm = CDF_BENCH_WINDOW
    for s in samples[:warm]:
        swc.update(s)
    t0 = time.perf_counter()
    acc = 0.0
    for s in samples[warm:]:
        swc.update(s)
        acc += swc.evaluate(45.0)          # Lemma 1 read
        acc += swc.partial_mean_below(45.0)  # Lemma 2 read
        acc += swc.percentile(10.0)        # guaranteed-rate read
    return time.perf_counter() - t0, acc


def test_windowed_cdf_update_query(results_dir: Path):
    """SlidingWindowCDF vs a re-sorting window on the update+query cycle.

    Two gates, following ``bench_runner_scaling``:

    1. **Bit-identity** (always) — the checksum of every query result
       must match the re-sorting window's; the incremental structure is
       only a fast path if it changes nothing.
    2. **Speedup** (environment-gated) — ``SlidingWindowCDF`` must be
       at least :data:`CDF_MIN_SPEEDUP`× faster per cycle.  Set
       ``CDF_BENCH_GATE=0`` to record without asserting (shared/loaded
       boxes where Python microbenchmarks are noise).

    ``CDF_BENCH_RECORD=1`` (re)records ``benchmarks/results/BENCH_cdf.json``.
    """
    rng = np.random.default_rng(5)
    samples = (
        50 + 5 * rng.standard_normal(CDF_BENCH_WINDOW + CDF_BENCH_CYCLES)
    ).tolist()

    batch_s, batch_acc = min(
        _windowed_cycle(_ResortWindow, samples) for _ in range(3)
    )
    inc_s, inc_acc = min(
        _windowed_cycle(SlidingWindowCDF, samples) for _ in range(3)
    )

    # Gate 1: the two windows must agree bit-for-bit on every query.
    assert inc_acc == batch_acc, (
        f"incremental checksum {inc_acc!r} != batch {batch_acc!r}"
    )

    speedup = batch_s / inc_s if inc_s > 0 else float("inf")
    measurement = {
        "window": CDF_BENCH_WINDOW,
        "cycles": CDF_BENCH_CYCLES,
        "batch_us_per_cycle": round(batch_s * 1e6 / CDF_BENCH_CYCLES, 3),
        "incremental_us_per_cycle": round(inc_s * 1e6 / CDF_BENCH_CYCLES, 3),
        "speedup": round(speedup, 3),
        "bit_identical": True,
    }

    results_path = results_dir / CDF_RESULTS_NAME
    record = os.environ.get("CDF_BENCH_RECORD") == "1"
    if results_path.exists() and not record:
        data = json.loads(results_path.read_text(encoding="utf-8"))
        data["latest"] = measurement
    else:
        data = {
            "schema": 1,
            "workload": (
                f"W={CDF_BENCH_WINDOW}, {CDF_BENCH_CYCLES} cycles of "
                "update + evaluate + partial_mean_below + percentile"
            ),
            "baseline": measurement,
            "latest": measurement,
        }
    atomic_write_json(results_path, data)

    # Gate 2: skip only when explicitly told the box cannot measure it.
    if os.environ.get("CDF_BENCH_GATE") != "0":
        assert speedup >= CDF_MIN_SPEEDUP, (
            f"incremental window only {speedup:.2f}x faster than batch "
            f"(< {CDF_MIN_SPEEDUP}x): batch {batch_s:.3f}s vs "
            f"incremental {inc_s:.3f}s over {CDF_BENCH_CYCLES} cycles"
        )


def test_percentile_failure_scoring(benchmark):
    """Vectorized Figure-4 scoring throughput (thousands of predictions)."""
    from repro.monitoring.errors import percentile_prediction_failure_rate

    rng = np.random.default_rng(4)
    series = 50 + 5 * rng.standard_normal(20_000)

    rate = benchmark(
        lambda: percentile_prediction_failure_rate(
            series, q=10, history=500, horizon=5
        )
    )
    assert 0.0 <= rate <= 1.0


def test_interval_allocation(benchmark):
    """Per-interval cost of PGOS fluid allocation plus water-filling."""
    rng = np.random.default_rng(2)
    scheduler = PGOSScheduler(min_history=30)
    scheduler.setup(
        [
            StreamSpec(name="crit", required_mbps=20.0, probability=0.95),
            StreamSpec(name="bulk", elastic=True, nominal_mbps=30.0),
        ],
        ["A", "B"],
        dt=0.1,
        tw=1.0,
    )
    scheduler.seed_history(
        {
            "A": 50 + 4 * rng.standard_normal(200),
            "B": 30 + 9 * rng.standard_normal(200),
        }
    )
    backlog = {"crit": 20.0, "bulk": None}

    def one_interval():
        requests = scheduler.allocate(0, backlog)
        return {
            p: water_fill(reqs, 50.0) for p, reqs in requests.items()
        }

    granted = benchmark(one_interval)
    assert granted["A"]["crit"] > 0
    # 0.1 s intervals: allocation must cost a small fraction of that.
    assert benchmark.stats["mean"] < 0.01
