"""A service's delivery templates follow its edits, step after step.

``VectorizedDelivery`` keeps its serving-order columns across steps:
each scheduler ``add_stream`` / ``remove_stream`` is an edit of them,
and a compile re-reads only the rates a solve changed (the placement
records whose shares differ, one elastic split per class), while a
checkpoint restore serves every stream again from empty columns.  This
state machine drives a real ``IQPathsService`` through opens, reopened
names, closes, steps (across the end of the fallback phase),
quarantine flips, degradation downgrades, sheds and restores, and
``state_dict`` / ``load_state_dict`` round trips into a fresh service.
After every step the templates the engine would deliver with must equal
``PGOSScheduler._allocate_inner``'s request lists (``_fallback_requests``
before history exists) slot for slot, floats compared by hex, rule 2's
``> 1e-9`` gate included.  Derandomized: a failure reproduces on every
run.
"""

import json

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.spec import StreamSpec
from repro.errors import AdmissionError
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.robustness.degradation import plan_degradation
from tests.property.test_delivery_templates import assert_templates_match

#: Shared, read-only: a service only ever reads its realization.
REALIZATION = make_figure8_testbed().realize(seed=11, duration=30.0, dt=0.1)
#: Below the scheduler's ``min_history`` (30): the first steps serve
#: the fallback split, then the first solve rebuilds every rate.
WARMUP = 25

#: Stream templates: single-path guarantees (two share a precedence
#: key), one that must split across both paths, a violation bound, an
#: RTT ceiling between the two paths' levels (A ~34 ms, B ~38 ms),
#: elastic streams of three classes (two weights, one with the RTT
#: ceiling), one no Figure-8 path can carry, and a non-elastic stream
#: with no guarantee (placed nowhere, requesting nothing).
TEMPLATES = [
    dict(required_mbps=3.0, probability=0.99),
    dict(required_mbps=3.0, probability=0.99),
    dict(required_mbps=12.0, probability=0.95),
    dict(required_mbps=60.0, probability=0.6),
    dict(required_mbps=6.0, max_violation_rate=0.1),
    dict(required_mbps=5.0, probability=0.9, max_rtt_ms=36.5),
    dict(elastic=True, nominal_mbps=20.0),
    dict(elastic=True, nominal_mbps=5.0),
    dict(elastic=True, nominal_mbps=20.0, max_rtt_ms=36.5),
    dict(required_mbps=400.0, probability=0.99),
    dict(required_mbps=2.0),
]


def fresh_service():
    return IQPathsService(
        REALIZATION, warmup_intervals=WARMUP, strict_admission=False
    )


def backlog_mbps(service):
    """What the scalar allocator is handed for the serving streams: the
    batch's backlog in Mbps, ``None`` for an unbounded row."""
    batch = service._vec.batch
    dt = batch.dt
    backlog = {}
    for spec in service.scheduler.streams:
        row = batch.row(spec.name)
        if np.isnan(batch.demand_mbps[row]):
            backlog[spec.name] = None
        else:
            backlog[spec.name] = (
                (float(batch.backlog_bytes[row]) / dt) * 8.0
            ) / 1_000_000
    return backlog


class DeliveryEdits(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.service = fresh_service()
        self.opened = 0
        #: name -> template of every stream closed (reopen pool).
        self.closed = {}
        self.templates = {}

    def _open(self, name, template):
        self.templates[name] = template
        try:
            self.service.open_stream(
                StreamSpec(name=name, **TEMPLATES[template])
            )
        except AdmissionError:
            return False
        return True

    @rule(template=st.integers(0, len(TEMPLATES) - 1))
    def open(self, template):
        self._open(f"s{self.opened}", template)
        self.opened += 1

    @precondition(lambda self: self.closed)
    @rule(pick=st.integers(0, 63))
    def reopen(self, pick):
        name = sorted(self.closed)[pick % len(self.closed)]
        if self._open(name, self.closed[name]):
            del self.closed[name]

    @precondition(lambda self: self.service.handles)
    @rule(pick=st.integers(0, 63))
    def close(self, pick):
        names = list(self.service.handles)
        name = names[pick % len(names)]
        self.service.close_stream(name)
        self.closed[name] = self.templates[name]

    @rule(steps=st.integers(1, 3))
    def advance(self, steps):
        service = self.service
        steps = min(steps, service.remaining_intervals)
        service.advance(steps * service.dt)

    @precondition(lambda self: self.service._scheduler_bound)
    @rule(paths=st.sampled_from([(), ("A",), ("B",)]))
    def quarantine(self, paths):
        self.service.scheduler.set_quarantine(paths)

    @precondition(
        lambda self: self.service._scheduler_bound and self.service.handles
    )
    @rule(
        paths=st.sampled_from([("A",), ("B",), ("A", "B")]),
        quarantine_active=st.booleans(),
    )
    def degrade(self, paths, quarantine_active):
        """A degradation plan for ``paths`` alone: on one path streams
        are downgraded (a remove then an add of the lowered spec) or
        stripped to elastic; an active quarantine sheds the elastic
        ones; a plan over both paths restores them."""
        service = self.service
        scheduler = service.scheduler
        plan = plan_degradation(
            [h.spec for h in service.handles.values()],
            {p: scheduler.monitors[p].cdf() for p in paths},
            service.tw,
            quarantine_active=quarantine_active,
            admission=service._admission,
            qos=scheduler.path_qos(list(paths)),
            previous=service._plan,
        )
        service._apply_plan(plan)
        service._plan = plan
        service.degradation_level = plan.level

    @rule()
    def checkpoint(self):
        state = json.loads(json.dumps(self.service.state_dict()))
        restored = fresh_service()
        restored.load_state_dict(state)
        self.service = restored

    @invariant()
    def templates_equal_allocate_inner(self):
        service = self.service
        if not service._scheduler_bound:
            return
        scheduler = service.scheduler
        backlog = backlog_mbps(service)
        # The scalar allocator first (it remaps if the step would), then
        # the templates the next step would deliver with.
        requests = scheduler._allocate_inner(service._k, backlog)
        templates = service._vec._current_templates()
        assert_templates_match(
            templates, requests, scheduler, service._vec.batch, backlog
        )


DeliveryEdits.TestCase.settings = settings(
    derandomize=True,
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
)
TestDeliveryEdits = DeliveryEdits.TestCase
