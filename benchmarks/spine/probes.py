"""Direct probes: public functions timed on a pinned fixture.

Every probe reports the median of 20 calls (the event-engine probe: 5
calls of 1e5 events).  The fixture never
depends on ``--seed``: a probe is a property of the code, not of the
workload that happens to print it.
"""

from __future__ import annotations

import io
import statistics
import time
from typing import Callable

from repro.cluster import protocol
from repro.core.admission import AdmissionController
from repro.core.mapping import compute_mapping
from repro.monitoring.cdf import SlidingWindowCDF
from repro.monitoring.monitor import PathMonitor
from repro.network.emulab import make_figure8_testbed
from repro.robustness.degradation import plan_degradation
from repro.runner.spec import mix_seed
from repro.sim.engine import Simulator
from repro.topo.generators import build_testbed
from repro.topo.spec import parse_topology
from repro.workload.catalog import (
    default_catalog,
    plan_concurrent_batch,
    plan_sessions,
)
from repro.workload.scenarios import WARMUP_INTERVALS, make_scenario

from benchmarks.spine.spec import INSTANCE_SEED

CALLS = 20
_TW = 1.0


def median_s(fn: Callable[[], object], calls: int = CALLS) -> float:
    """Median wall seconds of ``calls`` calls (after one warm-up call)."""
    fn()
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _figure8_samples(duration: float = 60.0):
    realization = make_figure8_testbed().realize(
        seed=mix_seed(INSTANCE_SEED, "spine-probe"), duration=duration,
        dt=0.1,
    )
    return {
        path: realization.available[path].available_mbps
        for path in realization.path_names()
    }


def _warm_cdfs():
    """CDFs of freshly warmed Figure-8 monitors, as a service has them."""
    cdfs = {}
    for path, samples in _figure8_samples().items():
        monitor = PathMonitor(path)
        monitor.observe_bandwidth_many(samples[:WARMUP_INTERVALS])
        cdfs[path] = monitor.cdf()
    return cdfs


def _specs(count: int):
    return plan_concurrent_batch(default_catalog(), count, INSTANCE_SEED)


def mapping_probes() -> dict[str, float]:
    specs, cdfs = _specs(150), _warm_cdfs()
    mapping = compute_mapping(specs, cdfs, _TW)
    admission = AdmissionController(tw=_TW)
    if not admission.try_admit(specs, cdfs).admitted:
        raise RuntimeError("probe fixture: 150 specs must be admittable")
    scenario = make_scenario("baseline")
    catalog = default_catalog()
    plan_seed = mix_seed(INSTANCE_SEED, "workload-plan", scenario.name)
    return {
        "workload.plan_s": median_s(
            lambda: plan_sessions(
                scenario.model, catalog, scenario.duration, seed=plan_seed
            )
        ),
        "core.mapping.compute_ms": 1e3 * median_s(
            lambda: compute_mapping(specs, cdfs, _TW)
        ),
        "core.mapping.compile_ms": 1e3 * median_s(mapping.compile),
        "core.admission.admit_ms": 1e3 * median_s(
            lambda: admission.try_admit(specs, cdfs)
        ),
    }


def reject_probes() -> dict[str, float]:
    specs, cdfs = _specs(600), _warm_cdfs()
    admission = AdmissionController(tw=_TW)
    if admission.try_admit(specs, cdfs).admitted:
        raise RuntimeError("probe fixture: 600 specs must not fit")
    topology = parse_topology("fat_tree_k4:dc-incast")
    return {
        "core.admission.reject_ms": 1e3 * median_s(
            lambda: admission.try_admit(specs, cdfs)
        ),
        "topo.build_s": median_s(lambda: build_testbed(topology)),
    }


def degradation_probes() -> dict[str, float]:
    specs, cdfs = _specs(150), _warm_cdfs()
    one_path = dict([next(iter(sorted(cdfs.items())))])
    return {
        "robustness.plan_degradation_ms": 1e3 * median_s(
            lambda: plan_degradation(
                specs, one_path, _TW, quarantine_active=True
            )
        ),
    }


def cdf_probes() -> dict[str, float]:
    samples = next(iter(_figure8_samples().values()))
    window = SlidingWindowCDF(window=500)
    window.extend(samples[:500])
    cycles = 200

    def cycle():
        for x in samples[:cycles]:
            window.update(x)
            window.percentile(5.0)

    testbed = make_figure8_testbed()
    seed = mix_seed(INSTANCE_SEED, "spine-steady")
    return {
        "monitoring.cdf_cycle_us": 1e6 * median_s(cycle) / cycles,
        "network.realize_s": median_s(
            lambda: testbed.realize(seed=seed, duration=915.0, dt=0.1)
        ),
    }


def packet_probes() -> dict[str, float]:
    samples = next(iter(_figure8_samples().values()))
    monitor = PathMonitor("A", window=500)
    monitor.observe_bandwidth_many(samples[:500])
    monitor.mark_remapped()
    cycles = 100

    def ks_cycle():
        for x in samples[:cycles]:
            monitor.observe_bandwidth(x)
            monitor.cdf_changed_significantly()

    events = 100_000

    def engine():
        sim = Simulator()
        noop = lambda: None  # noqa: E731 - the cheapest possible event
        for i in range(events):
            sim.schedule(i * 1e-3, noop)
        sim.run()

    return {
        "monitoring.ks_check_us": 1e6 * median_s(ks_cycle) / cycles,
        # 1e5 events a call: five calls are samples enough.
        "sim.engine_events_per_s": events / median_s(engine, calls=5),
    }


def frame_probes(payloads) -> dict[str, float]:
    """Encode/decode cost of a real ``report`` frame."""
    message = protocol.report(0, payloads)
    wire = protocol.encode_frame(message)
    return {
        "cluster.frame_encode_us": 1e6 * median_s(
            lambda: protocol.encode_frame(message)
        ),
        "cluster.frame_decode_us": 1e6 * median_s(
            lambda: protocol.read_frame(io.BytesIO(wire))
        ),
    }
