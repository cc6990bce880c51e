"""The service holds nothing per closed session.

A close retires the stream: its handle, spec and series leave the
service, so what the service holds — and what its snapshot writes — is
a function of the open population, not of how many sessions the run
ever opened.  The churn driver's records are the run's output and stay.
"""

import gc
import tracemalloc

import pytest

from repro.core.spec import StreamSpec
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.workload.scenarios import make_scale_run, make_scenario
from tests.oracles import ScalarReferenceService, service_class


def _service_names(state: dict) -> set[str]:
    """Every stream name the service part of a snapshot mentions."""
    names = {entry["spec"]["name"] for entry in state["handles"]}
    names |= set(state["delivered"]) | set(state["backlog_bytes"])
    names |= {name for name, _ in state["serving"]}
    if state["scheduler"] is not None:
        names |= set(state["scheduler"]["streams"])
    return names


@pytest.mark.parametrize(
    "service_cls", [IQPathsService, ScalarReferenceService]
)
def test_long_churn_keeps_only_open_streams(service_cls):
    scenario = make_scenario("baseline")
    hooks = {"checks": 0}

    def check(k, t):
        if k % 10:
            return
        driver, service = hooks["driver"], hooks["driver"].service
        open_sessions = driver._state.open_sessions
        assert set(service.handles) == open_sessions, k
        state = service.state_dict()
        assert _service_names(state) <= open_sessions, k
        assert len(state["handles"]) == len(open_sessions)
        hooks["checks"] += 1

    with service_class(service_cls):
        driver = hooks["driver"] = make_scale_run(
            scenario, seed=0, max_sessions=300, on_step=check
        )
    report = driver.run(scenario.duration)
    assert hooks["checks"] == int(scenario.duration / driver.service.dt) // 10
    # Most sessions closed before the end: the checks saw retirement.
    assert report.closed > report.peak_concurrent
    assert not driver.service.handles
    assert len(report.sessions) == 300


#: Streams open at once in the memory check.
CONCURRENCY = 8

#: Bytes that ``repro`` code may come to hold between cycle 200 and
#: cycle 800.  A service that keeps each closed session's handle, spec
#: and bookkeeping measured +326 KB here (600 sessions); one that keeps
#: none measured +1 to +15 KB (allocator and free-list noise, larger
#: when other tests ran first).
RETAINED_SLACK_BYTES = 64 * 1024


def test_memory_is_independent_of_sessions_ever_opened():
    def spec(i: int) -> StreamSpec:
        if i % 2:
            return StreamSpec(
                name=f"s{i}", elastic=True, nominal_mbps=2.0
            )
        return StreamSpec(
            name=f"s{i}", required_mbps=1.0, probability=0.9
        )

    def cycles(first: int, last: int) -> None:
        """Close the oldest stream, open one, deliver one interval."""
        for i in range(first, last):
            service.close_stream(f"s{i - CONCURRENCY}")
            service.open_stream(spec(i))
            service.advance(service.dt)

    def retained() -> int:
        """Traced bytes still held that ``repro`` code allocated."""
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/repro/*")]
        )
        return sum(trace.size for trace in snapshot.traces)

    # Traced from before the service exists, with a warmup as long as
    # the monitors' 500-sample windows: every window sample is traced
    # and the windows are full, so monitoring memory is flat.
    tracemalloc.start()
    try:
        realization = make_figure8_testbed().realize(
            seed=3, duration=140.0, dt=0.1
        )
        service = IQPathsService(realization, warmup_intervals=500)
        for i in range(CONCURRENCY):
            service.open_stream(spec(i))
        cycles(CONCURRENCY, CONCURRENCY + 200)
        after_200 = retained()
        cycles(CONCURRENCY + 200, CONCURRENCY + 800)
        after_800 = retained()
    finally:
        tracemalloc.stop()
    assert len(service.handles) == CONCURRENCY
    assert after_800 - after_200 <= RETAINED_SLACK_BYTES, (
        after_200,
        after_800,
    )
