"""Delivery semantics asserted directly, not differentially.

Byte-identity with the scalar oracle shows two implementations agree,
not that either honours what the overlay offered.  These runs check the
delivery loop's own invariants after every interval of a churn run and
of a flash crowd under a fault campaign:

* conservation — the streams together never receive more than the
  paths' (fault-scaled) availability in that interval;
* bounded sender buffers — every backlog stays in ``[0, limit]``;
* history — a stream's delivered series has exactly one entry per
  interval it was open, and a report taken before the close keeps its
  values while the freed row is recycled.
"""

import numpy as np
import pytest

from repro.middleware.service import IQPathsService
from repro.units import bytes_in_interval
from repro.workload.scenarios import make_scale_run, make_scenario
from tests.oracles import ScalarReferenceService, service_class


def _check_interval(service: IQPathsService) -> None:
    """Invariants of the interval ``service`` has just delivered."""
    k = service._k - 1
    offered = sum(
        service._effective_avail(p, k) for p in service.path_names
    )
    backlog = service._backlog_state()
    delivered = 0.0
    for handle in service.handles.values():
        assert handle.open, handle.name
        series = service.report(handle.name).mbps
        opened = int(round(handle.opened_at / service.dt))
        assert len(series) == service._k - service._start_k - opened
        if len(series):
            assert series[-1] >= 0.0
            delivered += series[-1]
        demand = handle.spec.demand_mbps
        limit = (
            0.0
            if demand is None
            else bytes_in_interval(demand, service.buffer_seconds)
        )
        assert 0.0 <= backlog[handle.name] <= limit, handle.name
    assert delivered <= offered * (1 + 1e-9), (
        f"interval {k}: delivered {delivered} Mbps > offered {offered}"
    )


@pytest.mark.parametrize(
    "service_cls", [IQPathsService, ScalarReferenceService]
)
@pytest.mark.parametrize(
    "name, seed", [("baseline", 0), ("flash-crowd-chaos", 3)]
)
def test_every_interval_conserves_bandwidth_and_bounds_backlog(
    service_cls, name, seed
):
    scenario = make_scenario(name)
    hooks = {}
    with service_class(service_cls):
        driver = make_scale_run(
            scenario,
            seed=seed,
            max_sessions=40,
            on_step=lambda k, t: _check_interval(hooks["service"]),
        )
    service = hooks["service"] = driver.service
    assert type(service) is service_cls
    closed = {}
    close_stream = service.close_stream

    def close_and_keep(name):
        kept = service.report(name)
        handle = close_stream(name)
        closed[name] = (handle, kept, np.array(kept.mbps))
        return handle

    service.close_stream = close_and_keep
    report = driver.run(scenario.duration)
    assert report.offered == 40
    assert closed and not service.handles
    assert any(kept.mbps.any() for _, kept, _ in closed.values())
    # A report taken before the close holds exactly the lifetime's
    # history, and its values survive the recycling of the freed row.
    for handle, kept, at_close in closed.values():
        assert not handle.open
        lifetime = int(
            round((handle.closed_at - handle.opened_at) / service.dt)
        )
        assert len(kept.mbps) == lifetime
        np.testing.assert_array_equal(kept.mbps, at_close)
