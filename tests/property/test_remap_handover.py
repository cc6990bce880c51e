"""Differential battery: what a membership change installs.

A remap may install the mapping admission control solved one call
earlier instead of solving again (``PGOSScheduler.offer_mapping``), the
V_P / V_S vectors are compiled only when the packet path asks, and an
admission solve keeps the placements the solve before it settled
(``PlacementFold``).  All three are shortcuts around pure functions, so
the proof is differential: after **every** remap the installed
``ResourceMapping`` must equal a fresh ``compute_mapping`` of the
scheduler's own inputs — dict iteration order of ``rates_mbps`` and
``packets`` included, because the delivery loop's float sums follow it
— the lazily compiled schedule must equal an eager ``mapping.compile``,
and **every** solve an ``AdmissionController`` runs on its fold through
``compute_mapping`` — each open, rejection, partial solve and rung of
the reference degradation ladder (``tests/oracles/degradation_ladder.py``)
of every test in this module — must equal the solve on no fold at all.
The ladder itself runs its rungs as edits of the fold's order, held
equal to the reference by ``TestLadderOnTheFold`` here and by
``test_degradation_ladder_oracle.py``.

``derandomize=True``: this battery gates the byte-identity of every
report checksum under churn, so it must itself be reproducible.
"""

from bisect import bisect_left, bisect_right
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import admission, pgos
from repro.core.admission import AdmissionController
from repro.core.mapping import (
    PathQoSEstimate,
    PlacementFold,
    best_effort_mapping,
    compute_mapping,
)
from repro.core.spec import StreamSpec
from repro.errors import AdmissionError
from repro.middleware import service as service_module
from repro.middleware.service import IQPathsService
from repro.monitoring.cdf import EmpiricalCDF
from repro.network.emulab import make_figure8_testbed
from repro.network.faults import FaultCampaign, PathFault
from repro.obs.context import Observability
from repro.robustness.degradation import DegradationLevel, plan_degradation
from tests.oracles import ScalarReferenceService
from tests.oracles import degradation_ladder as oracle_ladder

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


def solve_outcome(specs, cdfs, tw, qos, fold=None):
    """``(mapping, comparable outcome)`` of one solve; a refusal is an
    outcome too (the stream it names and what it says)."""
    try:
        mapping = compute_mapping(specs, cdfs, tw, qos=qos, fold=fold)
    except AdmissionError as exc:
        return None, ("refused", exc.stream_name, str(exc))
    return mapping, as_items(mapping)


class FoldChecks:
    """Stands in for ``compute_mapping`` where a fold is passed: solves
    on the fold, solves again on none, and demands the same outcome."""

    def __init__(self):
        self.solves = 0
        self.refusals = 0

    def __call__(self, specs, cdfs, tw, qos=None, fold=None):
        assert fold is not None
        fresh = solve_outcome(specs, cdfs, tw, qos)[1]
        self.solves += 1
        try:
            mapping = compute_mapping(specs, cdfs, tw, qos=qos, fold=fold)
        except AdmissionError as exc:
            self.refusals += 1
            assert ("refused", exc.stream_name, str(exc)) == fresh
            raise
        assert as_items(mapping) == fresh
        return mapping


@pytest.fixture(autouse=True)
def fold_checks():
    """Every admission solve of every test here is differential."""
    checks = FoldChecks()
    with mock.patch.object(admission, "compute_mapping", checks):
        yield checks


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
        # A remap that solves does so on the service's one fold ...
        for call in counting.call_args_list:
            assert call.kwargs["fold"] is self.service._admission.fold
        # ... and installs what a fresh solve of its own inputs gives.
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

    def test_open_after_a_reopened_name_is_adopted(self):
        """A close retires the stream, so a reopened name goes to the end
        of ``handles`` as it does in ``scheduler.streams``: admission
        solves the streams in the order the remap will (the float folds
        follow that order), and its offers stay good."""
        checked = CheckedService()
        assert checked.open("a", 1)
        assert checked.open("b", 2)
        checked.step()
        checked.service.close_stream("a")
        assert checked.open("a", 1)
        checked.step()
        assert (checked.remaps, checked.solves) == (2, 0)
        assert checked.open("c", 0)
        assert [s.name for s in checked.scheduler.streams] == ["b", "a", "c"]
        assert list(checked.service.handles) == ["b", "a", "c"]
        checked.step()
        assert (checked.remaps, checked.solves) == (3, 0)

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
                live = list(service.handles)
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


# ----------------------------------------------------------------------
# the placement fold
# ----------------------------------------------------------------------
def sampled_cdf(mean, seed, std=2.0, n=400):
    rng = np.random.default_rng(seed)
    return EmpiricalCDF(np.clip(mean + std * rng.standard_normal(n), 0, None))


QOS_LEVELS = [
    None,
    {"A": PathQoSEstimate(rtt_ms=34.0), "B": PathQoSEstimate(rtt_ms=38.0)},
    {"A": PathQoSEstimate(rtt_ms=38.0), "B": PathQoSEstimate(rtt_ms=34.0)},
    {"A": PathQoSEstimate(rtt_ms=40.0), "B": PathQoSEstimate(rtt_ms=41.0)},
]


class FoldProgram:
    """One persistent fold against a stream set, paths and levels that
    change under it; after every change, and after the partial solve a
    refusal is followed by, the fold must answer as a fresh one."""

    def __init__(self, fold):
        self.fold = fold
        self.specs = []
        self.paths = {"A": sampled_cdf(70.0, 1), "B": sampled_cdf(45.0, 2)}
        self.quarantined = set()
        self.qos = None
        self.tw = 1.0
        self.opened = 0
        self.samples = 2
        self.solves = 0
        self.rungs = 0

    def check(self):
        specs = list(self.specs)
        cdfs = {
            p: cdf for p, cdf in self.paths.items()
            if p not in self.quarantined
        }
        _, outcome = solve_outcome(specs, cdfs, self.tw, self.qos, self.fold)
        assert outcome == solve_outcome(specs, cdfs, self.tw, self.qos)[1]
        self.solves += 1
        if outcome[0] == "refused":
            # What AdmissionController._reject asks next.
            others = [s for s in specs if s.name != outcome[1]]
            _, partial = solve_outcome(
                others, cdfs, self.tw, self.qos, self.fold
            )
            assert partial == solve_outcome(
                others, cdfs, self.tw, self.qos
            )[1]

    def apply(self, op, arg):
        specs = self.specs
        guaranteed = [
            i for i, s in enumerate(specs) if s.probability is not None
        ]
        if op == "open":
            specs.append(
                StreamSpec(
                    name=f"s{self.opened}",
                    **TEMPLATES[arg % len(TEMPLATES)],
                )
            )
            self.opened += 1
        elif op == "close" and specs:
            del specs[arg % len(specs)]
        elif op == "downgrade" and guaranteed:
            # A ladder rung: one stream re-sorts further back.
            i = guaranteed[arg % len(guaranteed)]
            specs[i] = replace(
                specs[i], probability=specs[i].probability * 0.8
            )
        elif op == "demote" and guaranteed:
            # The last rung: the stream leaves the fold altogether.
            i = guaranteed[arg % len(guaranteed)]
            specs[i] = replace(
                specs[i],
                probability=None,
                elastic=True,
                nominal_mbps=specs[i].required_mbps,
            )
        elif op == "copy" and specs:
            # plan_degradation restarts its ladder from equal specs that
            # are other objects.
            i = arg % len(specs)
            specs[i] = replace(specs[i])
        elif op == "copy_all":
            specs[:] = [replace(s) for s in specs]
        elif op == "twin" and guaranteed:
            # An open whose key ties one already placed: it goes last
            # among the tied.
            twin = specs[guaranteed[arg % len(guaranteed)]]
            specs.append(replace(twin, name=f"s{self.opened}"))
            self.opened += 1
        elif op == "rung" and guaranteed:
            # A rung to a P no other stream has.
            i = guaranteed[arg % len(guaranteed)]
            self.rungs += 1
            specs[i] = replace(specs[i], probability=0.41 + 0.0007 * self.rungs)
        elif op == "collide" and len(guaranteed) > 1:
            # A rung onto another stream's key: the input order decides.
            i = guaranteed[arg % len(guaranteed)]
            k = guaranteed[(arg // len(guaranteed) + 1) % len(guaranteed)]
            if k != i:
                specs[i] = replace(
                    specs[i],
                    probability=specs[k].probability,
                    required_mbps=specs[k].required_mbps,
                )
        elif op == "partial" and guaranteed:
            # The partial solve without one stream, then the rung that
            # puts it back where it was.
            i = guaranteed[arg % len(guaranteed)]
            spec = specs.pop(i)
            self.check()
            specs.insert(i, spec)
        elif op == "sample":
            # A monitor's next sample: a new snapshot object, the
            # distribution where it was or well below.
            path = "AB"[arg % 2]
            self.samples += 1
            self.paths[path] = sampled_cdf(
                (70.0 if path == "A" else 45.0) / (1 + arg // 2 % 3),
                self.samples,
            )
        elif op == "quarantine":
            # Flip one path; never both down.
            self.quarantined ^= {"AB"[arg % 2]}
            if len(self.quarantined) == 2:
                self.quarantined = set()
        elif op == "qos":
            self.qos = QOS_LEVELS[arg % len(QOS_LEVELS)]
        elif op == "tw":
            # 0.011 s holds 5.5 packets of the violation-bound template:
            # its window quota, and so its rate, rounds differently.
            self.tw = [1.0, 0.5, 0.011][arg % 3]
        self.check()

    def run(self, program):
        for op, arg in program:
            self.apply(op, arg)
        return self


FOLD_OPS = [
    "open", "open", "open", "close", "downgrade", "demote", "copy",
    "copy_all", "twin", "rung", "collide", "partial", "sample",
    "quarantine", "qos", "tw",
]


def _stale_fold(ignored):
    """A fold that forgets to look at one of its validity keys."""

    class StaleFold(PlacementFold):
        def _memo_for(self, cdfs, tw, qos):
            memo = self._memo
            if memo is not None:
                if ignored == "cdf identity" and list(cdfs) == list(memo.cdfs):
                    cdfs = memo.cdfs
                elif ignored == "path list" and set(cdfs) <= set(memo.cdfs):
                    cdfs = memo.cdfs
                elif ignored == "qos":
                    qos = self._qos
                elif ignored == "tw":
                    tw = self._tw
            return super()._memo_for(cdfs, tw, qos)

    return StaleFold()


def _tie_blind_fold(side):
    """A fold that bisects a tied key in without the input order."""

    class TieBlindFold(PlacementFold):
        def _insert(self, spec, j):
            key = spec.mapping_precedence
            if key is None:
                return len(self._ordered)
            bisect = bisect_left if side == "first" else bisect_right
            i = bisect(self._keys, key)
            self._ordered.insert(i, spec)
            self._keys.insert(i, key)
            return i

    return TieBlindFold()


#: Per side a blind fold sends ties to, a program whose last step
#: inserts a tied key the other way: an open of a second stream of one
#: template, and the rung that puts the first of three back.
TIE_MOVES = {
    "first": [("open", 1), ("open", 1)],
    "last": [("open", 1), ("open", 1), ("open", 1), ("partial", 0)],
}

#: Per validity key, a program whose last step moves only that key.
KEY_MOVES = {
    "cdf identity": [("open", 1), ("open", 2), ("sample", 2)],
    "path list": [("open", 1), ("open", 2), ("quarantine", 0)],
    "qos": [("qos", 1), ("open", 6), ("open", 1), ("qos", 2)],
    "tw": [("open", 4), ("open", 0), ("tw", 2)],
}


class TestPlacementFold:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(FOLD_OPS), st.integers(0, 63)),
            min_size=1,
            max_size=25,
        )
    )
    def test_persistent_fold_answers_as_a_fresh_one(self, program):
        FoldProgram(PlacementFold()).run(program)

    @pytest.mark.parametrize("key", sorted(KEY_MOVES))
    def test_each_validity_key_is_needed(self, key):
        """Mutation check of the differential itself: the program passes
        on the real fold and fails on one that ignores ``key``."""
        program = KEY_MOVES[key]
        assert FoldProgram(PlacementFold()).run(program).solves == len(program)
        stale = FoldProgram(_stale_fold(key)).run(program[:-1])
        with pytest.raises(AssertionError):
            stale.apply(*program[-1])

    @pytest.mark.parametrize("side", sorted(TIE_MOVES))
    def test_ties_need_the_input_order(self, side):
        """Mutation check: the program passes on the real fold and fails
        on one that bisects a tied key to one side regardless of where
        the stream stands in the input."""
        program = TIE_MOVES[side]
        FoldProgram(PlacementFold()).run(program)
        blind = FoldProgram(_tie_blind_fold(side)).run(program[:-1])
        with pytest.raises(AssertionError):
            blind.apply(*program[-1])

    def test_opens_and_partial_solves_are_bisected_not_sorted(
        self, monkeypatch
    ):
        """Opens and closes, tied or not, and the partial solve with the
        rung that puts its stream back are edits of the kept order; a
        stream replaced in place, or every spec copied, sorts again."""
        fold = PlacementFold()
        sorted_by = []
        resort = PlacementFold._resort
        step = []

        def counting(self):
            if self is fold:
                sorted_by.append(step[-1])
            return resort(self)

        monkeypatch.setattr(PlacementFold, "_resort", counting)
        program = FoldProgram(fold)
        for op, arg in [
            ("open", 1), ("open", 0), ("open", 1), ("twin", 0),
            ("partial", 1), ("close", 1), ("open", 2), ("rung", 2),
            ("collide", 0), ("downgrade", 0), ("copy", 0), ("copy_all", 0),
        ]:
            step.append(op)
            program.apply(op, arg)
        assert sorted_by == ["rung", "collide", "downgrade", "copy", "copy_all"]

    def test_prefix_is_kept_and_only_the_suffix_placed(self):
        fold = PlacementFold()
        run = FoldProgram(fold).run([("open", 0), ("open", 1), ("open", 2)])
        # 1 + 2 + 3 placements without the fold; P-descending templates
        # arrive in precedence order, so each open appends one.
        assert (fold.solves, fold.placements, fold.reused) == (3, 3, 3)
        # A downgrade of the first stream re-sorts it to the back:
        # nothing ahead of its old position, so everything is placed again.
        run.apply("downgrade", 0)
        assert (fold.placements, fold.reused) == (6, 3)
        # Closing the stream now last keeps the two ahead of it.
        run.apply("close", 0)
        assert (fold.placements, fold.reused) == (6, 5)

    def test_refusal_keeps_the_streams_ahead_of_the_refused(self):
        fold = PlacementFold()
        run = FoldProgram(fold).run([("open", 1), ("open", 2)])
        before = fold.placements
        # Sorts between the two (P 0.95 > 0.93 > 0.9) and fits nowhere.
        run.specs.append(
            StreamSpec(name="huge", required_mbps=400.0, probability=0.93)
        )
        run.check()
        # The refused solve kept s0 and stopped at "huge"; the partial
        # solve kept s0 and placed s1, which the refusal never reached.
        assert fold.placements - before == 1
        assert [r.spec.name for r in fold._placed] == ["s0", "s1"]

    def test_fold_keeps_its_own_copy_of_the_shares(self):
        """The elastic epilogue adds a guaranteed+elastic stream's fill
        onto ``rates[name]`` in place; the fold's record must not grow
        with it, nor with what a caller does to the mapping."""
        fold = PlacementFold()
        specs = [
            StreamSpec(
                name="video",
                required_mbps=5.0,
                probability=0.9,
                elastic=True,
                nominal_mbps=15.0,
            ),
            StreamSpec(name="ctl", required_mbps=3.0, probability=0.99),
        ]
        cdfs = {"A": sampled_cdf(70.0, 1), "B": sampled_cdf(45.0, 2)}
        fresh = as_items(compute_mapping(specs, cdfs, 1.0))
        first = compute_mapping(specs, cdfs, 1.0, fold=fold)
        assert sum(first.rates_mbps["video"].values()) > 5.0
        assert as_items(first) == fresh
        first.rates_mbps["ctl"]["A"] = first.rates_mbps["ctl"]["B"] = 1e3
        assert as_items(compute_mapping(specs, cdfs, 1.0, fold=fold)) == fresh
        assert fold.reused == 2

    def test_caller_editing_its_cdfs_in_place_is_seen(self):
        fold = PlacementFold()
        specs = [StreamSpec(name="a", required_mbps=25.0, probability=0.9)]
        cdfs = {"A": sampled_cdf(70.0, 1), "B": sampled_cdf(45.0, 2)}
        compute_mapping(specs, cdfs, 1.0, fold=fold)
        cdfs["A"] = sampled_cdf(20.0, 3)
        assert as_items(
            compute_mapping(specs, cdfs, 1.0, fold=fold)
        ) == as_items(compute_mapping(specs, cdfs, 1.0))
        assert fold.reused == 0


class TestLadderOnTheFold:
    def test_every_rung_of_the_ladder_is_differential(self, fold_checks):
        """Downgrades re-sort a stream, the second rejection strips it:
        each rung of the reference ladder, solved on a controller's fold,
        equals a fresh solve (held by the ``fold_checks`` stand-in); the
        sweep plans the same, and restarted on the same controller it
        reuses what the last run placed."""
        specs = [
            StreamSpec(name=f"g{i}", required_mbps=rate, probability=p)
            for i, (rate, p) in enumerate(
                [(10.0, 0.99), (8.0, 0.95), (8.0, 0.9), (6.0, 0.9), (5.0, 0.8)]
            )
        ] + [StreamSpec(name="bulk", elastic=True, nominal_mbps=30.0)]
        cdfs = {"A": sampled_cdf(22.0, 5, std=6.0)}
        reference = oracle_ladder.plan_degradation(
            specs, cdfs, 1.0, quarantine_active=True,
            admission=AdmissionController(tw=1.0),
        )
        assert fold_checks.refusals >= 3
        controller = AdmissionController(tw=1.0)
        plan = plan_degradation(
            specs, cdfs, 1.0, quarantine_active=True, admission=controller
        )
        assert plan == reference
        assert plan.level is DegradationLevel.DOWNGRADED
        assert any(p is not None for p in plan.downgraded.values())
        assert any(p is None for p in plan.downgraded.values())
        fold = controller.fold
        placements, solves = fold.placements, fold.solves
        again = plan_degradation(
            specs, cdfs, 1.0, quarantine_active=True, admission=controller
        )
        assert again == plan
        assert plan == plan_degradation(
            specs, cdfs, 1.0, quarantine_active=True
        )
        # Same rungs, nearly all of their placements already in the memo
        # or the fold: fewer new placements than rungs.
        rungs = fold.solves - solves
        assert fold.placements - placements < rungs * len(specs) / 2
        # The fold the sweep leaves answers as a fresh one (through the
        # ``fold_checks`` stand-in).
        checked = fold_checks.solves
        controller.try_admit(list(again.serve), cdfs)
        assert fold_checks.solves == checked + 1

    def test_flash_crowd_during_an_outage(self, fold_checks):
        """The chaos shape end to end: lenient opens while a path is
        quarantined, every open re-planning the ladder — each plan held
        against the reference ladder on a controller of its own — and a
        profile of it that tells the open's solve from the ladder's."""
        obs = Observability(profile=True)
        realization = make_figure8_testbed(
            profile_a="abilene-moderate", profile_b="light"
        ).realize(seed=77, duration=60.0, dt=0.1)
        service = IQPathsService(
            realization,
            warmup_intervals=200,
            strict_admission=False,
            campaign=FaultCampaign(
                faults=(
                    PathFault(path="A", start=3.0, end=20.0, severity=1.0),
                ),
                name="outage-A",
            ),
            obs=obs,
        )
        fold = service._admission.fold
        # The scheduler's remaps solve on the same fold; the metrics
        # count admission's work only.
        remap_work = np.zeros(3, dtype=int)
        #: What the remaps' solves would place on no fold.
        fresh_placements = []
        remap = service.scheduler.remap

        def counted_remap():
            before = np.array([fold.solves, fold.placements, fold.reused])
            try:
                return remap()
            finally:
                work = (
                    np.array([fold.solves, fold.placements, fold.reused])
                    - before
                )
                remap_work[:] += work
                if work[0]:
                    fresh_placements.append(
                        sum(
                            s.mapping_precedence is not None
                            for s in service.scheduler.streams
                        )
                    )

        service.scheduler.remap = counted_remap
        #: The reference ladder's controller, kept across plans as the
        #: service keeps its own; its solves pass ``fold_checks`` too.
        reference = AdmissionController(tw=service.tw)
        ladder_solves = [0]
        sweep = service_module.plan_degradation

        def checked_plan(specs, cdfs, tw, quarantine_active, admission,
                         qos, previous):
            solves = fold.solves
            plan = sweep(
                specs, cdfs, tw, quarantine_active=quarantine_active,
                admission=admission, qos=qos, previous=previous,
            )
            ladder_solves[0] += fold.solves - solves
            assert plan == oracle_ladder.plan_degradation(
                specs, cdfs, tw, quarantine_active=quarantine_active,
                admission=reference, qos=qos,
            )
            return plan

        with mock.patch.object(
            service_module, "plan_degradation", checked_plan
        ):
            self._flash_crowd(service)
        assert service.degradation_level is DegradationLevel.DOWNGRADED
        assert fold_checks.refusals > 10
        assert fold.reused > fold.placements
        # Remaps that refuse the offer start from the ladder's placements.
        assert remap_work[0] > 0
        assert remap_work[1] < sum(fresh_placements) / 2
        counted = {
            name: obs.metrics.get(f"mapping.fold_{name}").value
            for name in ("solves", "placements", "reused")
        }
        assert counted == {
            "solves": fold.solves - remap_work[0],
            "placements": fold.placements - remap_work[1],
            "reused": fold.reused - remap_work[2],
        }
        # The opens solve through ``compute_mapping``, the ladder on the
        # fold's order: between them, every solve that is not a remap's.
        opens = fold_checks.solves - reference.fold.solves
        assert fold.solves == opens + ladder_solves[0] + remap_work[0]
        spans = {}
        for row in obs.prof.report().rows:
            spans[row["name"]] = spans.get(row["name"], 0) + row["count"]
        assert spans["service.admission"] == 15
        assert spans["service.degradation_plan"] >= 14
        service.advance(30.0)
        assert not service.health.quarantined()

    @staticmethod
    def _flash_crowd(service):
        service.open_stream(StreamSpec(name="bulk", elastic=True,
                                       nominal_mbps=30.0))
        service.advance(8.0)
        assert service.health.quarantined()
        for i in range(14):
            service.open_stream(
                StreamSpec(
                    name=f"g{i}",
                    required_mbps=6.0 + i % 3,
                    probability=[0.99, 0.95, 0.9][i % 3],
                )
            )
            if i % 4 == 3:
                service.advance(0.2)
            if i == 9:
                service.close_stream("g2")
