"""PGOS: the packet fast path (Figure 7 / Table 1) and interval allocation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core.mapping import PathQoSEstimate, compute_mapping
from repro.core.pgos import (
    LEVEL_SCHEDULED_ELSEWHERE,
    LEVEL_SCHEDULED_HERE,
    LEVEL_UNSCHEDULED,
    PGOSScheduler,
    dispatch_window,
    make_packet_queue,
)
from repro.core.scheduler import water_fill
from repro.core.spec import StreamSpec
from repro.core.vectors import build_schedule
from repro.transport.backoff import ExponentialBackoff
from repro.transport.packet import PacketQueue
from repro.transport.service import PathService

PKT = 1000


def services(budgets: dict[str, float]) -> dict[str, PathService]:
    out = {}
    for name, budget in budgets.items():
        svc = PathService(
            name, backoff=ExponentialBackoff(base_delay=10.0, max_delay=10.0)
        )
        svc.begin_interval(0.0, budget)
        out[name] = svc
    return out


class TestDispatchBasics:
    def test_paper_example_dispatch(self):
        # S1: 5 pkts on path 1; S2: 4 on path 1 + 6 on path 2.
        schedule = build_schedule(
            {"S1": {"p1": 5}, "S2": {"p1": 4, "p2": 6}},
            tw=1.0,
            stream_order=["S1", "S2"],
            path_order=["p1", "p2"],
        )
        queues = {
            "S1": make_packet_queue("S1", 5, 1.0, PKT),
            "S2": make_packet_queue("S2", 10, 1.0, PKT),
        }
        svc = services({"p1": 9 * PKT, "p2": 6 * PKT})
        result = dispatch_window(schedule, svc, queues)
        assert result.sent["S1"] == {"p1": 5}
        assert result.sent["S2"] == {"p1": 4, "p2": 6}
        assert result.blocked_events == 0
        assert result.unsent == 0

    def test_mapped_proportions_respected(self):
        schedule = build_schedule(
            {"S": {"A": 8, "B": 2}}, tw=1.0, path_order=["A", "B"]
        )
        queues = {"S": make_packet_queue("S", 10, 1.0, PKT)}
        svc = services({"A": 100 * PKT, "B": 100 * PKT})
        result = dispatch_window(schedule, svc, queues)
        assert result.sent["S"] == {"A": 8, "B": 2}

    def test_empty_queue_harmless(self):
        schedule = build_schedule({"S": {"A": 5}}, tw=1.0)
        queues = {"S": PacketQueue("S", PKT)}
        svc = services({"A": 100 * PKT})
        result = dispatch_window(schedule, svc, queues)
        assert result.sent == {}


class TestPrecedenceRules:
    def test_rule2_overflow_to_other_path(self):
        # Path A can only take 2 packets; the rest of S's A-quota must go
        # out via B (packets scheduled on another path, rule 2).
        schedule = build_schedule(
            {"S": {"A": 6, "B": 0}}, tw=1.0, path_order=["A", "B"]
        )
        queues = {"S": make_packet_queue("S", 6, 1.0, PKT)}
        svc = services({"A": 2 * PKT, "B": 100 * PKT})
        result = dispatch_window(schedule, svc, queues)
        assert result.sent["S"]["A"] == 2
        assert result.sent["S"]["B"] == 4
        assert result.unsent == 0

    def test_rule3_unscheduled_fills_leftover(self):
        schedule = build_schedule({"S": {"A": 3}}, tw=1.0)
        queues = {"S": make_packet_queue("S", 3, 1.0, PKT)}
        extra = {"E": make_packet_queue("E", 5, 1.0, PKT)}
        svc = services({"A": 6 * PKT})
        result = dispatch_window(schedule, svc, queues, extra)
        assert result.sent["S"]["A"] == 3
        assert result.sent["E"]["A"] == 3  # leftover capacity used

    def test_scheduled_precedes_unscheduled(self):
        # Capacity for only the scheduled packets: unscheduled get nothing.
        schedule = build_schedule({"S": {"A": 4}}, tw=1.0)
        queues = {"S": make_packet_queue("S", 4, 1.0, PKT)}
        extra = {"E": make_packet_queue("E", 4, 1.0, PKT)}
        svc = services({"A": 4 * PKT})
        result = dispatch_window(schedule, svc, queues, extra)
        assert result.sent["S"]["A"] == 4
        assert "E" not in result.sent

    def test_rule2_earliest_deadline_first(self):
        # Two streams scheduled on B; A has spare room: the earliest
        # deadline among B-scheduled packets crosses over first.
        schedule = build_schedule(
            {"early": {"B": 1}, "late": {"B": 1}},
            tw=1.0,
            stream_order=["early", "late"],
            path_order=["B", "A"],
        )
        queues = {
            "early": make_packet_queue("early", 1, 1.0, PKT),
            "late": make_packet_queue("late", 2, 1.0, PKT),
        }
        queues["late"].popleft()  # late's head deadline is 0.5
        svc = services({"A": PKT, "B": 0.0})
        result = dispatch_window(schedule, svc, queues)
        assert result.sent.get("early", {}).get("A") == 1
        assert "late" not in result.sent

    def test_blocked_path_packet_requeued_not_lost(self):
        schedule = build_schedule({"S": {"A": 3}}, tw=1.0)
        queues = {"S": make_packet_queue("S", 3, 1.0, PKT)}
        svc = services({"A": 0.0})
        result = dispatch_window(schedule, svc, queues)
        assert result.sent == {}
        assert len(queues["S"]) == 3  # nothing lost

    def test_conservation(self):
        # sent + unsent == offered, regardless of budgets.
        schedule = build_schedule(
            {"S1": {"A": 5, "B": 3}, "S2": {"B": 4}},
            tw=1.0,
            path_order=["A", "B"],
        )
        queues = {
            "S1": make_packet_queue("S1", 8, 1.0, PKT),
            "S2": make_packet_queue("S2", 4, 1.0, PKT),
        }
        svc = services({"A": 4 * PKT, "B": 5 * PKT})
        result = dispatch_window(schedule, svc, queues)
        sent = sum(result.sent_total(s) for s in ("S1", "S2"))
        assert sent + result.unsent == 12
        assert sent == 9  # exactly the byte budget


def seeded_scheduler(rng) -> PGOSScheduler:
    """One guaranteed and one elastic stream over a stable and a noisy path."""
    scheduler = PGOSScheduler(min_history=30)
    streams = [
        StreamSpec(name="crit", required_mbps=20.0, probability=0.95),
        StreamSpec(name="bulk", elastic=True, nominal_mbps=30.0),
    ]
    scheduler.setup(streams, ["A", "B"], dt=0.1, tw=1.0)
    scheduler.seed_history(
        {
            "A": 50 + 4 * rng.standard_normal(200),
            "B": 30 + 10 * rng.standard_normal(200),
        }
    )
    return scheduler


class TestPGOSAllocate:
    def _scheduler(self, rng) -> PGOSScheduler:
        return seeded_scheduler(rng)

    def test_critical_on_stable_path_level0(self, rng):
        scheduler = self._scheduler(rng)
        requests = scheduler.allocate(0, {"crit": 20.0, "bulk": None})
        crit_a = [r for r in requests["A"] if r.stream == "crit"]
        assert crit_a and crit_a[0].level == LEVEL_SCHEDULED_HERE
        assert crit_a[0].demand_mbps == pytest.approx(20.0)

    def test_elastic_requests_on_both_paths(self, rng):
        scheduler = self._scheduler(rng)
        requests = scheduler.allocate(0, {"crit": 20.0, "bulk": None})
        for path in ("A", "B"):
            bulk = [r for r in requests[path] if r.stream == "bulk"]
            assert bulk and bulk[0].level == LEVEL_UNSCHEDULED
            assert bulk[0].demand_mbps is None

    def test_overflow_request_appears_after_dip(self, rng):
        scheduler = self._scheduler(rng)
        # Backlog 28 > mapped 20: the excess spills via rule 2.
        requests = scheduler.allocate(0, {"crit": 28.0, "bulk": None})
        crit_b = [r for r in requests["B"] if r.stream == "crit"]
        assert crit_b and crit_b[0].level == LEVEL_SCHEDULED_ELSEWHERE
        assert crit_b[0].demand_mbps == pytest.approx(8.0)

    def test_guarantee_holds_through_water_fill(self, rng):
        scheduler = self._scheduler(rng)
        requests = scheduler.allocate(0, {"crit": 20.0, "bulk": None})
        granted = water_fill(requests["A"], 35.0)
        assert granted["crit"] == pytest.approx(20.0)
        assert granted["bulk"] == pytest.approx(15.0)

    def test_fallback_before_history(self):
        scheduler = PGOSScheduler(min_history=30)
        scheduler.setup(
            [StreamSpec(name="s", required_mbps=10.0, probability=0.9)],
            ["A", "B"],
            dt=0.1,
            tw=1.0,
        )
        requests = scheduler.allocate(0, {"s": 10.0})
        # Even split across both paths until monitors fill.
        assert sum(
            r.demand_mbps for p in ("A", "B") for r in requests[p]
        ) == pytest.approx(10.0)

    def test_observe_fills_monitors(self, rng):
        scheduler = PGOSScheduler(min_history=5)
        scheduler.setup(
            [StreamSpec(name="s", required_mbps=10.0, probability=0.9)],
            ["A", "B"],
            dt=0.1,
            tw=1.0,
        )
        for k in range(10):
            scheduler.observe(k, {"A": 50.0 + k, "B": 30.0})
        assert scheduler.has_history

    def test_remap_counted_once_for_stable_cdf(self, rng):
        scheduler = self._scheduler(rng)
        scheduler.allocate(0, {"crit": 20.0, "bulk": None})
        first = scheduler.remap_count
        for k in range(20):
            scheduler.observe(k, {"A": 50.0, "B": 30.0})
            scheduler.allocate(k + 1, {"crit": 20.0, "bulk": None})
        assert scheduler.remap_count == first

    def test_remap_on_cdf_shift(self, rng):
        scheduler = self._scheduler(rng)
        scheduler.allocate(0, {"crit": 20.0, "bulk": None})
        first = scheduler.remap_count
        # Crash path A's bandwidth: KS distance grows past the threshold.
        for k in range(300):
            scheduler.observe(k, {"A": 25.0 + rng.standard_normal(), "B": 30.0})
        scheduler.allocate(1, {"crit": 20.0, "bulk": None})
        assert scheduler.remap_count > first

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            PGOSScheduler(min_history=1)
        with pytest.raises(ConfigurationError):
            PGOSScheduler(split_strategy="sideways")


class TestStreamNames:
    """The name set beside ``streams`` follows every writer of the list."""

    @staticmethod
    def assert_duplicate_refused(scheduler, name):
        before = [s.name for s in scheduler.streams]
        with pytest.raises(ConfigurationError, match="already scheduled"):
            scheduler.add_stream(StreamSpec(name=name, elastic=True))
        assert [s.name for s in scheduler.streams] == before

    def test_after_setup(self, rng):
        scheduler = seeded_scheduler(rng)
        self.assert_duplicate_refused(scheduler, "crit")
        self.assert_duplicate_refused(scheduler, "bulk")

    def test_after_remove_and_readd(self, rng):
        scheduler = seeded_scheduler(rng)
        spec = scheduler.remove_stream("crit")
        scheduler.add_stream(spec)  # the name is free again
        assert [s.name for s in scheduler.streams] == ["bulk", "crit"]
        self.assert_duplicate_refused(scheduler, "crit")

    def test_after_restore(self, rng):
        scheduler = seeded_scheduler(rng)
        state = scheduler.state_dict()
        restored = PGOSScheduler(min_history=30)
        restored.setup(
            [StreamSpec(name="other", elastic=True)], ["A", "B"],
            dt=0.1, tw=1.0,
        )
        restored.load_state_dict(state, scheduler.streams)
        restored.add_stream(StreamSpec(name="other", elastic=True))
        self.assert_duplicate_refused(restored, "crit")
        self.assert_duplicate_refused(restored, "other")

    def test_after_service_bind(self):
        from repro.middleware.service import IQPathsService
        from repro.network.emulab import make_figure8_testbed

        realization = make_figure8_testbed().realize(
            seed=3, duration=30.0, dt=0.1
        )
        service = IQPathsService(realization, warmup_intervals=100)
        # Binding sets the scheduler up with the first spec and drops it
        # again; the open then adds it through add_stream.
        service.open_stream(
            StreamSpec(name="first", required_mbps=5.0, probability=0.9)
        )
        assert [s.name for s in service.scheduler.streams] == ["first"]
        self.assert_duplicate_refused(service.scheduler, "first")


class TestOfferedMapping:
    """remap() installs a handed-over mapping only for its own question."""

    @pytest.fixture
    def scheduler(self, rng):
        return seeded_scheduler(rng)

    @staticmethod
    def offer(scheduler, specs=None, qos=None):
        """Solve for (a variation of) the scheduler's inputs and offer it."""
        usable = scheduler.usable_paths
        cdfs = {p: scheduler.monitors[p].cdf() for p in usable}
        specs = list(scheduler.streams) if specs is None else specs
        qos = scheduler.path_qos(usable) if qos is None else qos
        mapping = compute_mapping(specs, cdfs, scheduler.tw, qos=qos)
        scheduler.offer_mapping(specs, cdfs, qos, mapping)
        return mapping

    def test_same_question_is_adopted_once(self, scheduler):
        offered = self.offer(scheduler)
        assert scheduler.remap() is offered
        again = scheduler.remap()
        assert again is not offered
        assert again == offered

    def test_new_bandwidth_sample_voids_the_offer(self, scheduler):
        offered = self.offer(scheduler)
        # Bandwidth only: the RTT/loss levels stay unmonitored, so the
        # CDF snapshot's identity is the one thing that changed.
        scheduler.observe(0, {"A": 50.0})
        assert scheduler.remap() is not offered

    def test_other_stream_order_is_refused(self, scheduler):
        offered = self.offer(scheduler, specs=scheduler.streams[::-1])
        installed = scheduler.remap()
        assert installed is not offered
        assert list(installed.rates_mbps) == ["crit", "bulk"]

    def test_equal_but_distinct_spec_objects_are_refused(self, scheduler):
        copies = [dataclasses.replace(s) for s in scheduler.streams]
        assert copies == scheduler.streams
        offered = self.offer(scheduler, specs=copies)
        assert scheduler.remap() is not offered

    def test_quarantine_after_the_offer_is_refused(self, scheduler):
        offered = self.offer(scheduler)
        scheduler.set_quarantine(["A"])
        installed = scheduler.remap()
        assert installed is not offered
        assert installed.paths_of("crit") == ["B"]

    def test_other_qos_is_refused(self, scheduler):
        qos = {p: PathQoSEstimate(rtt_ms=10.0) for p in ("A", "B")}
        offered = self.offer(scheduler, qos=qos)
        assert scheduler.remap() is not offered

    def test_even_split_ignores_offers(self, rng):
        scheduler = PGOSScheduler(min_history=30, split_strategy="even")
        scheduler.setup(
            [StreamSpec(name="crit", required_mbps=20.0, probability=0.9)],
            ["A", "B"],
            dt=0.1,
            tw=1.0,
        )
        scheduler.seed_history(
            {p: 50 + 4 * rng.standard_normal(200) for p in ("A", "B")}
        )
        offered = self.offer(scheduler)
        assert not offered.is_split("crit")
        assert scheduler.remap().is_split("crit")
