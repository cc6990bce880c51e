"""Delivery edge cases, asserted identically on the oracle and the product.

Satellite coverage for the vectorized core's corners: zero-length
delivery windows (no-op advances, open/close inside one interval, a
single-window packet session), stream close racing a pending remap, and
paths whose residual-bandwidth draw has nothing mapped to them.  Every
service test drives :class:`tests.oracles.ScalarReferenceService` and
``IQPathsService`` through the same script and asserts byte-equality of
the resulting state, not just plausibility; the packet-session cases
assert the result's values.
"""

import numpy as np
import pytest

from repro.apps.smartpointer import smartpointer_streams
from repro.core.spec import StreamSpec
from repro.errors import ConfigurationError
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.runner.cache import payload_digest
from repro.transport.session import run_packet_session
from tests.oracles import ScalarReferenceService

SERVICES = (ScalarReferenceService, IQPathsService)


def make_service(service_cls, seed: int = 11, duration: float = 60.0):
    realization = make_figure8_testbed().realize(
        seed=seed, duration=duration, dt=0.1
    )
    return service_cls(
        realization, warmup_intervals=100, strict_admission=False
    )


def digests(service: IQPathsService):
    state = payload_digest(service.state_dict())
    reports = {
        name: report.mbps.tolist()
        for name, report in service.reports().items()
    }
    return state, reports


class TestZeroLengthWindows:
    def test_zero_advance_is_a_noop(self):
        results = []
        for service_cls in SERVICES:
            service = make_service(service_cls)
            service.open_stream(
                StreamSpec(name="s", required_mbps=10.0, probability=0.9)
            )
            service.advance(0.0)
            results.append(digests(service))
        assert results[0] == results[1]
        # Nothing stepped: the stream's history is empty either way.
        assert results[0][1]["s"] == []

    def test_open_close_within_one_interval(self):
        """A stream whose lifetime is zero delivery windows."""
        results = []
        for service_cls in SERVICES:
            service = make_service(service_cls)
            service.open_stream(
                StreamSpec(name="blip", required_mbps=5.0, probability=0.9)
            )
            kept = service.report("blip").mbps.tolist()
            service.close_stream("blip")
            service.advance(2.0)
            results.append((digests(service), kept))
        assert results[0] == results[1]
        (_, reports), kept = results[0]
        # Empty at the close, and retired after it.
        assert kept == [] and "blip" not in reports

    def test_single_window_packet_session(self):
        """The shortest legal session: exactly one traffic window."""
        realization = make_figure8_testbed().realize(
            seed=5, duration=31.0, dt=0.1
        )
        streams = smartpointer_streams()
        session = run_packet_session(
            realization, streams, tw=1.0, warmup_windows=30
        )
        assert session.n_windows == 1
        for spec in streams:
            per_path = session.sent[spec.name]
            assert set(per_path) == {"A", "B"}
            for series in per_path.values():
                assert len(series) == 1 and type(series[0]) is int
            # One window's packets, consistent with the throughput view.
            sent = sum(series[0] for series in per_path.values())
            mbps = session.throughput_mbps(spec.name, spec.packet_size)
            assert mbps.tolist() == [sent * spec.packet_size * 8.0 / 1e6]
            if spec.guaranteed:
                assert sent == spec.packets_in_window(1.0)
        # No health tracker: never quarantined, one flag per window.
        assert session.quarantine_series == {"A": [False], "B": [False]}

    def test_session_with_no_traffic_windows_rejected(self):
        realization = make_figure8_testbed().realize(
            seed=5, duration=30.0, dt=0.1
        )
        with pytest.raises(ConfigurationError):
            run_packet_session(
                realization,
                smartpointer_streams(),
                tw=1.0,
                warmup_windows=30,
            )


class TestCloseDuringRemap:
    def test_close_while_remap_pending(self):
        """Membership churn voids the mapping; the close must land first.

        Closing a stream immediately after opening another leaves the
        scheduler with a voided mapping *and* a freed row whose recycled
        slot must not leak into the next compiled template.
        """
        results = []
        for service_cls in SERVICES:
            service = make_service(service_cls)
            for i in range(3):
                service.open_stream(
                    StreamSpec(
                        name=f"s{i}", required_mbps=8.0, probability=0.9
                    )
                )
            service.advance(3.0)
            # New member voids the mapping; close "s1" before any step
            # runs the pending remap.
            service.open_stream(
                StreamSpec(name="late", required_mbps=6.0, probability=0.9)
            )
            service.close_stream("s1")
            service.advance(3.0)
            # Reopen the closed name: recycles s1's row, fresh history.
            service.open_stream(
                StreamSpec(name="s1", required_mbps=4.0, probability=0.9)
            )
            service.advance(2.0)
            results.append(digests(service))
        assert results[0] == results[1]
        assert len(results[0][1]["s1"]) == 20  # reopened lifetime only

    def test_close_all_streams_then_step(self):
        """Delivery over an empty stream set is a well-defined no-op."""
        results = []
        for service_cls in SERVICES:
            service = make_service(service_cls)
            service.open_stream(
                StreamSpec(name="s", required_mbps=10.0, probability=0.9)
            )
            service.advance(1.0)
            service.close_stream("s")
            service.advance(1.0)
            results.append(digests(service))
        assert results[0] == results[1]


class TestEmptyPathResidualDraw:
    def test_path_with_nothing_mapped_still_validated(self):
        """A one-stream set leaves a path with an empty request list.

        The scalar loop still calls water_fill([], capacity) on that
        path (validating the capacity); the vectorized engine must do
        the same rather than skipping the path.
        """
        results = []
        for service_cls in SERVICES:
            service = make_service(service_cls)
            service.open_stream(
                StreamSpec(name="solo", required_mbps=2.0, probability=0.9)
            )
            service.advance(5.0)
            results.append(digests(service))
        assert results[0] == results[1]
        series = np.asarray(results[0][1]["solo"])
        assert len(series) == 50
        assert series.max() > 0.0

    def test_elastic_only_residual_draw(self):
        """Rule-3-only traffic: the whole draw is residual bandwidth."""
        results = []
        for service_cls in SERVICES:
            service = make_service(service_cls)
            service.open_stream(
                StreamSpec(name="bulk", elastic=True, nominal_mbps=40.0)
            )
            service.advance(4.0)
            results.append(digests(service))
        assert results[0] == results[1]
        assert max(results[0][1]["bulk"]) > 0.0
