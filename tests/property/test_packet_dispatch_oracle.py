"""The Figure 7 fast path against its packet-object oracle.

:func:`repro.core.pgos.dispatch_window` moves deadline queues and settles
each path service once per window; ``tests/oracles/packet_dispatch.py``
walks one packet object at a time and offers each to its service.  Both
run the same window sequences and must agree exactly: per window the
sent table (first-send order included), blocked events, rule-2 and
rule-3 counts, unsent packets and every remaining deadline; per service
the budget by float hex, the backoff window and failure count, the
delivery log, and the trace events and metrics the services emit.

The draws mix packet sizes, non-integer budgets and budgets that land
on exactly zero or exactly one packet, fill queues above and below their
quota, map streams over several paths so rule 2 crosses, leave a
scheduled stream unmapped or a mapped path without a service, and keep
the backoff across windows with a base delay below and above the window.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pgos import dispatch_window, make_packet_queue
from repro.core.vectors import build_schedule
from repro.obs.context import Observability
from repro.transport.backoff import ExponentialBackoff
from repro.transport.service import PathService
from tests.oracles import packet_dispatch as oracle

TW = 1.0
SIZES = (400, 1000, 1500)


@st.composite
def budgets(draw, sizes):
    """One path's window budget."""
    kind = draw(st.sampled_from(("zero", "packets", "one", "fraction")))
    if kind == "zero":
        return 0.0
    if kind == "one":
        return float(draw(st.sampled_from(sizes)))
    whole = sum(
        draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=12))
    )
    if kind == "packets":
        return float(whole)
    return whole + draw(st.floats(min_value=0.01, max_value=0.99))


@st.composite
def scenarios(draw):
    paths = [f"P{i}" for i in range(draw(st.integers(1, 3)))]
    scheduled = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    unscheduled = [f"u{i}" for i in range(draw(st.integers(0, 3)))]
    sizes = {
        s: draw(st.sampled_from(SIZES)) for s in scheduled + unscheduled
    }
    # A scheduled stream may be left out of the mapping, and the last
    # path may have no service.
    mapping = {
        s: {p: draw(st.integers(0, 4)) for p in paths}
        for s in scheduled
        if s == scheduled[0] or draw(st.booleans())
    }
    served = paths[:-1] if len(paths) > 1 and draw(st.booleans()) else paths
    precedence = draw(
        st.one_of(st.none(), st.permutations(scheduled + unscheduled))
    )
    base_delay = draw(st.sampled_from((0.3, 2.5)))
    windows = []
    for _ in range(draw(st.integers(2, 6))):
        fills = {s: draw(st.integers(0, 6)) for s in sizes}
        windows.append(
            (fills, {p: draw(budgets(list(sizes.values()))) for p in served})
        )
    return served, scheduled, sizes, mapping, precedence, base_delay, windows


def make_side(paths, base_delay, service_cls):
    obs = Observability()
    services = {
        p: service_cls(
            p,
            backoff=ExponentialBackoff(base_delay=base_delay, max_delay=4.0),
            obs=obs,
        )
        for p in paths
    }
    return obs, services


def run_both(scenario):
    paths, scheduled, sizes, mapping, precedence, base_delay, windows = (
        scenario
    )
    schedule = build_schedule(mapping, tw=TW)
    obs, services = make_side(paths, base_delay, PathService)
    ref_obs, ref_services = make_side(
        paths, base_delay, oracle.ReferencePathService
    )
    for side in (obs, ref_obs):
        side.bind_streams({s: i for i, s in enumerate(sizes, start=1)})
    queues = {
        s: make_packet_queue(s, 0, TW, size) for s, size in sizes.items()
    }
    ref_queues = {
        s: oracle.packets_from(s, (), size) for s, size in sizes.items()
    }
    for w, (fills, window_budgets) in enumerate(windows):
        now = w * TW
        for s, count in fills.items():
            fresh = make_packet_queue(s, count, TW, sizes[s], created_at=now)
            queues[s].extend(fresh)
            ref_queues[s].extend(oracle.packets_from(s, fresh, sizes[s]))
        for p, budget in window_budgets.items():
            services[p].begin_interval(now, budget)
            ref_services[p].begin_interval(now, budget)

        def split(qs):
            return (
                {s: qs[s] for s in scheduled},
                {s: q for s, q in qs.items() if s not in scheduled},
            )

        result = dispatch_window(
            schedule, services, *split(queues), stream_precedence=precedence
        )
        expected = oracle.dispatch_window(
            schedule,
            ref_services,
            *split(ref_queues),
            stream_precedence=precedence,
        )
        yield w, result, expected, queues, ref_queues, services, ref_services
        # Stale heads are dropped as the packet session drops them.
        for q in queues.values():
            while q and q[0] < now - TW:
                q.popleft()
        for q in ref_queues.values():
            while q and q[0].deadline < now - TW:
                q.popleft()
    assert obs.trace.events() == ref_obs.trace.events()
    assert obs.metrics.to_dict() == ref_obs.metrics.to_dict()


@given(scenarios())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_dispatch_matches_packet_oracle(scenario):
    for w, result, expected, queues, ref_queues, services, ref_services in (
        run_both(scenario)
    ):
        assert [(s, list(p.items())) for s, p in result.sent.items()] == [
            (s, list(p.items())) for s, p in expected.sent.items()
        ], w
        assert result.blocked_events == expected.blocked_events, w
        assert result.rule2_sent == expected.rule2_sent, w
        assert result.unscheduled_sent == expected.unscheduled_sent, w
        assert result.unsent == expected.unsent, w
        for s, q in queues.items():
            assert list(q) == [p.deadline for p in ref_queues[s]], (w, s)
        for p, service in services.items():
            ref = ref_services[p]
            assert (
                float(service.remaining_budget).hex()
                == float(ref.remaining_budget).hex()
            ), (w, p)
            assert service.blocked_until == ref.blocked_until, (w, p)
            assert service.backoff.failures == ref.backoff.failures, (w, p)
            for field in ("bytes_by_stream", "packets_by_stream"):
                assert list(getattr(service.log, field).items()) == list(
                    getattr(ref.log, field).items()
                ), (w, p, field)
            assert list(service.log.deadline_misses.items()) == list(
                ref.log.deadline_misses.items()
            ), (w, p)
