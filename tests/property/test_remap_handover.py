"""Differential battery: what a membership change installs.

A remap may install the mapping admission control solved one call
earlier instead of solving again (``PGOSScheduler.offer_mapping``), and
the V_P / V_S vectors are compiled only when the packet path asks.
Both are shortcuts around pure functions, so the proof is differential:
after **every** remap the installed ``ResourceMapping`` must equal a
fresh ``compute_mapping`` of the scheduler's own inputs — dict iteration
order of ``rates_mbps`` and ``packets`` included, because the delivery
loop's float sums follow it — and the lazily compiled schedule must
equal an eager ``mapping.compile``.

``derandomize=True``: this battery gates the byte-identity of every
report checksum under churn, so it must itself be reproducible.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pgos
from repro.core.mapping import best_effort_mapping, compute_mapping
from repro.core.spec import StreamSpec
from repro.errors import AdmissionError
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from tests.oracles import ScalarReferenceService

#: Shared, read-only: a service only ever reads its realization.
REALIZATION = make_figure8_testbed().realize(seed=11, duration=30.0, dt=0.1)
WARMUP = 100

#: Stream templates: single-path guarantees, one that must split across
#: both paths, a violation bound, pure elastic, an RTT ceiling between
#: the two paths' levels (A ~34 ms, B ~38 ms), and one no Figure-8 path
#: can carry (rejected, or opened degraded).
TEMPLATES = [
    dict(required_mbps=3.0, probability=0.99),
    dict(required_mbps=12.0, probability=0.95),
    dict(required_mbps=25.0, probability=0.9),
    dict(required_mbps=60.0, probability=0.6),
    dict(required_mbps=6.0, max_violation_rate=0.1),
    dict(elastic=True, nominal_mbps=20.0),
    dict(required_mbps=5.0, probability=0.9, max_rtt_ms=36.5),
    dict(required_mbps=400.0, probability=0.99),
]


def as_items(mapping):
    """Every field of a mapping with dict iteration order made explicit."""
    return (
        [(s, list(d.items())) for s, d in mapping.rates_mbps.items()],
        [(s, list(d.items())) for s, d in mapping.packets.items()],
        list(mapping.achieved_probability.items()),
        list(mapping.achieved_violation_rate.items()),
        mapping.tw,
    )


class CheckedService:
    """A service whose every remap is held against a fresh solve."""

    def __init__(self, strict=True, service_cls=IQPathsService):
        self.service = service_cls(
            REALIZATION,
            warmup_intervals=WARMUP,
            strict_admission=strict,
        )
        self.scheduler = self.service.scheduler
        self.remaps = 0
        #: Mapping solves the scheduler itself ran (not admission's).
        self.solves = 0
        self._remap = self.scheduler.remap
        self.scheduler.remap = self._checked_remap

    def _expected(self, previous):
        scheduler = self.scheduler
        usable = scheduler.usable_paths
        cdfs = {p: scheduler.monitors[p].cdf() for p in usable}
        qos = scheduler.path_qos(usable)
        try:
            return compute_mapping(
                scheduler.streams, cdfs, scheduler.tw, qos=qos
            )
        except AdmissionError:
            if previous is not None:
                return previous
            return best_effort_mapping(
                scheduler.streams, cdfs, scheduler.tw, qos=qos
            )

    def _checked_remap(self):
        previous = self.scheduler.mapping
        counting = mock.Mock(wraps=compute_mapping)
        with mock.patch.object(pgos, "compute_mapping", counting):
            installed = self._remap()
        self.remaps += 1
        self.solves += counting.call_count
        assert installed is self.scheduler.mapping
        assert as_items(installed) == as_items(self._expected(previous))
        return installed

    def open(self, name, template):
        spec = StreamSpec(name=name, **TEMPLATES[template])
        try:
            self.service.open_stream(spec)
        except AdmissionError:
            return False
        return True

    def step(self, intervals=1):
        self.service.advance(intervals * self.service.dt)


# ----------------------------------------------------------------------
# named cases
# ----------------------------------------------------------------------
class TestHandover:
    def test_open_then_step_adopts_admissions_mapping(self):
        checked = CheckedService()
        assert checked.open("a", 0)
        checked.step()
        assert checked.open("b", 1)
        checked.step()
        assert (checked.remaps, checked.solves) == (2, 0)

    def test_last_of_several_opens_in_one_step_is_adopted(self):
        checked = CheckedService()
        for i, template in enumerate([0, 1, 4, 5]):
            assert checked.open(f"s{i}", template)
        checked.step()
        assert (checked.remaps, checked.solves) == (1, 0)

    def test_close_after_open_in_one_step_solves_again(self):
        checked = CheckedService()
        assert checked.open("a", 0)
        checked.step()
        assert checked.open("b", 1)
        checked.service.close_stream("a")
        checked.step()
        assert (checked.remaps, checked.solves) == (2, 1)

    def test_open_after_a_reopened_name_is_refused(self):
        """``handles`` keeps a reopened name at its first position while
        ``scheduler.streams`` appends it: from then on admission solves
        the streams in another order than the remap will (the float
        folds follow that order), so its offers must go."""
        checked = CheckedService()
        assert checked.open("a", 1)
        assert checked.open("b", 2)
        checked.step()
        checked.service.close_stream("a")
        # The reopen itself is still solved in scheduler order: "a" is
        # not open while admission lists the standing streams.
        assert checked.open("a", 1)
        checked.step()
        assert (checked.remaps, checked.solves) == (2, 0)
        assert checked.open("c", 0)
        assert [s.name for s in checked.scheduler.streams] == ["b", "a", "c"]
        assert [
            h.name for h in checked.service.handles.values() if h.open
        ] == ["a", "b", "c"]
        checked.step()
        assert (checked.remaps, checked.solves) == (3, 1)

    def test_quarantine_between_open_and_step_is_refused(self):
        checked = CheckedService()
        assert checked.open("a", 0)
        checked.step()
        assert checked.open("b", 1)
        checked.scheduler.set_quarantine(["B"])
        checked.step()
        assert (checked.remaps, checked.solves) == (2, 1)
        assert checked.scheduler.mapping.paths_of("b") == ["A"]

    def test_strict_rejection_hands_over_the_others(self):
        """A close voids the mapping, the open after it is refused: the
        ``partial`` mapping of the standing streams is what remap needs."""
        checked = CheckedService()
        assert checked.open("a", 0)
        assert checked.open("b", 1)
        checked.step()
        checked.service.close_stream("a")
        assert not checked.open("huge", 7)
        checked.step()
        assert (checked.remaps, checked.solves) == (2, 0)
        assert list(checked.scheduler.mapping.rates_mbps) == ["b"]

    def test_lenient_degraded_open_is_refused(self):
        """Opened anyway: the stream set grew past what admission mapped."""
        checked = CheckedService(strict=False)
        assert checked.open("a", 0)
        checked.step()
        assert checked.open("huge", 7)
        assert not checked.service.handles["huge"].admitted
        checked.step()
        assert checked.solves == 1
        assert checked.scheduler.degraded

    def test_stale_offer_is_dropped_by_the_next_remap(self):
        """A refused stream leaves its offer in the slot (nothing voided
        the mapping); by the next remap the monitors have moved on."""
        checked = CheckedService()
        assert checked.open("a", 0)
        checked.step()
        assert not checked.open("huge", 7)
        checked.step(5)
        assert checked.remaps == 1
        # Void the mapping without a membership change or an admission.
        checked.scheduler.set_quarantine(["B"])
        checked.scheduler.set_quarantine([])
        checked.step()
        assert (checked.remaps, checked.solves) == (2, 1)


# ----------------------------------------------------------------------
# arbitrary interleavings
# ----------------------------------------------------------------------
def _op():
    return st.one_of(
        st.tuples(st.just("open"), st.integers(0, len(TEMPLATES) - 1)),
        st.tuples(st.just("close"), st.integers(0, 63)),
        st.tuples(st.just("reopen"), st.integers(0, 63)),
        st.tuples(
            st.just("quarantine"), st.sampled_from([(), ("A",), ("B",)])
        ),
    )


@st.composite
def programs(draw):
    """Steps of a few membership operations, then 1-3 intervals."""
    return draw(
        st.lists(
            st.tuples(
                st.lists(_op(), min_size=0, max_size=4),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=10,
        )
    )


class TestArbitraryInterleavings:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        programs(),
        st.booleans(),
        st.sampled_from([IQPathsService, ScalarReferenceService]),
    )
    def test_every_remap_installs_the_fresh_solve(
        self, program, strict, service_cls
    ):
        checked = CheckedService(strict=strict, service_cls=service_cls)
        service = checked.service
        opened = 0
        #: name -> template of every stream ever closed (reopen pool).
        closed = {}
        templates = {}
        for ops, intervals in program:
            for op, arg in ops:
                live = [h.name for h in service.handles.values() if h.open]
                if op == "open":
                    name = f"s{opened}"
                    opened += 1
                    templates[name] = arg
                    checked.open(name, arg)
                elif op == "close" and live:
                    name = live[arg % len(live)]
                    service.close_stream(name)
                    closed[name] = templates[name]
                elif op == "reopen" and closed:
                    name = sorted(closed)[arg % len(closed)]
                    if checked.open(name, closed[name]):
                        del closed[name]
                elif op == "quarantine" and service._scheduler_bound:
                    checked.scheduler.set_quarantine(arg)
            checked.step(intervals)
        # The assertions live in _checked_remap; make sure it ran.
        if service._scheduler_bound and checked.scheduler.streams:
            assert checked.remaps >= 1


# ----------------------------------------------------------------------
# V_P / V_S on demand
# ----------------------------------------------------------------------
def _eager(scheduler):
    return scheduler.mapping.compile(
        stream_order=scheduler.stream_precedence(),
        path_order=scheduler.usable_paths,
    )


class TestScheduleOnDemand:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(0, len(TEMPLATES) - 2),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        st.sampled_from([(), ("A",), ("B",)]),
    )
    def test_maybe_remap_equals_eager_compile(self, chosen, quarantine):
        checked = CheckedService(strict=False)
        for i, template in enumerate(chosen):
            checked.open(f"s{i}", template)
        scheduler = checked.scheduler
        scheduler.set_quarantine(quarantine)
        checked.step(2)
        schedule = scheduler.maybe_remap()
        assert schedule == _eager(scheduler)
        # Compiled once per installed mapping, not once per call.
        assert scheduler.maybe_remap() is schedule

        # ... and a scheduler restored from a checkpoint agrees.
        restored = IQPathsService(
            REALIZATION, warmup_intervals=WARMUP, strict_admission=False
        )
        restored.load_state_dict(checked.service.state_dict())
        assert restored.scheduler.maybe_remap() == schedule

    def test_interval_mode_never_compiles(self):
        checked = CheckedService()
        assert checked.open("a", 1)
        with mock.patch(
            "repro.core.mapping.build_schedule",
            side_effect=AssertionError("compiled in interval mode"),
        ):
            checked.step(20)
            checked.service.close_stream("a")
            assert checked.open("b", 2)
            checked.step(20)
        assert checked.scheduler.schedule == _eager(checked.scheduler)

    def test_no_mapping_no_schedule(self):
        checked = CheckedService()
        assert checked.open("a", 1)
        assert checked.scheduler.mapping is None
        assert checked.scheduler.schedule is None
