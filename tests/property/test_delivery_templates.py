"""Compiled delivery templates equal PGOS's request lists.

``VectorizedDelivery.compile`` builds every usable path's request
slots from the engine's serving columns; ``PGOSScheduler._allocate_inner``
(and ``_fallback_requests`` before monitoring history exists) files the
same requests one at a time.  For random scheduler states this module
holds the two equal slot for slot: per path the same stream row,
weight, level and, within each level, order (a template keeps its
slots sorted by level), and, for random backlogs, the same demand,
rule 2's ``> 1e-9`` gate included.  Floats are compared by their hex
form, so ``-0.0`` and ``0.0`` are told apart.  Derandomized: a failure
reproduces on every run.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batchstate import BatchState
from repro.core.mapping import ResourceMapping
from repro.core.pgos import LEVEL_SCHEDULED_ELSEWHERE, PGOSScheduler
from repro.core.scheduler import water_fill
from repro.core.spec import StreamSpec
from repro.errors import ConfigurationError
from repro.obs.context import NULL_OBS, Observability
from repro.sim.vectorized import VectorizedDelivery

PATHS = ("A", "B", "C")
DT = 0.1

#: Shares a mapping can hold, edge cases first: signed zeros, totals
#: under the 1e-6 rule-2 weight floor, a negative share rule 3 replaces.
RATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 4e-7, 1e-6, -1.0, 2.5, 10.0]),
    st.floats(min_value=0.0, max_value=60.0),
)
#: Backlog minus the stream's mapped total: rule 2 files a request only
#: when that excess is above 1e-9.
OFFSETS = st.one_of(
    st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, -1.0, 3.0]),
    st.floats(min_value=-50.0, max_value=50.0),
)


def _spec(draw, name):
    kind = draw(st.sampled_from(["guaranteed", "violation", "elastic"]))
    required = draw(st.sampled_from([0.5, 4.0, 12.0]))
    if kind == "guaranteed":
        return StreamSpec(name=name, required_mbps=required, probability=0.95)
    if kind == "violation":
        return StreamSpec(
            name=name, required_mbps=required, max_violation_rate=0.05
        )
    return StreamSpec(
        name=name,
        elastic=True,
        nominal_mbps=draw(st.sampled_from([1.0, 7.5, 30.0])),
    )


@st.composite
def cases(draw):
    """(paths, quarantined, specs, row specs, rates, open order, backlog)."""
    paths = list(PATHS[: draw(st.integers(1, len(PATHS)))])
    quarantined = draw(st.sets(st.sampled_from(paths)))
    specs, row_specs, rates, backlog = [], [], {}, {}
    for i in range(draw(st.integers(0, 6))):
        name = f"s{i}"
        spec = _spec(draw, name)
        specs.append(spec)
        # The batch row is filled from the handle's original spec, which
        # a degradation plan can leave unbounded (a NaN-demand row) or
        # bounded while the scheduler serves another spec.
        row_spec = draw(
            st.sampled_from(
                [
                    spec,
                    StreamSpec(name=name, elastic=True, nominal_mbps=5.0),
                    StreamSpec(name=name, required_mbps=3.0),
                ]
            )
        )
        row_specs.append(row_spec)
        if draw(st.integers(0, 3)):  # else: absent from rates_mbps
            on = draw(st.lists(st.sampled_from(paths), unique=True))
            rates[name] = {p: draw(RATES) for p in on}
        if row_spec.demand_mbps is None:
            backlog[name] = None
        else:
            total = sum(rates.get(name, {}).values())
            backlog[name] = max(total + draw(OFFSETS), 0.0)
    order = draw(st.permutations(range(len(specs))))
    return paths, quarantined, specs, row_specs, rates, order, backlog


def build(paths, quarantined, specs, row_specs, rates, order, obs=NULL_OBS):
    """A scheduler with installed ``rates`` and an engine over its rows."""
    sched = PGOSScheduler()
    sched.setup(
        [StreamSpec(name="boot", required_mbps=1.0)], paths, dt=DT, tw=1.0
    )
    sched.remove_stream("boot")
    sched.seed_history({p: [50.0] * sched.min_history for p in paths})
    sched.set_quarantine(quarantined)
    for spec in specs:
        sched.add_stream(spec)
    sched.mapping = ResourceMapping(rates_mbps=rates, specs=specs)
    # The mapping under test is the installed one: no remap.
    sched._needs_remap = lambda: False
    batch = BatchState(n_columns=1, dt=DT, buffer_seconds=2.0)
    # Rows in another order than the streams (reopened names do that).
    for i in order:
        batch.open(row_specs[i], 0)
    engine = VectorizedDelivery.__new__(VectorizedDelivery)
    engine.service = SimpleNamespace(
        scheduler=sched, obs=obs, path_names=sched.path_names
    )
    engine.batch = batch
    # The serving columns, as a restore builds them: the scheduler's
    # streams served in order from empty columns.
    engine.serve_all(sched.streams)
    return sched, engine


def backlog_column(batch, backlog):
    """The engine's per-row backlog (Mbps); unbounded rows stay 0."""
    column = np.zeros(batch.capacity)
    for name, mbps in backlog.items():
        if mbps is not None:
            column[batch.row(name)] = mbps
    return column


def expected_slots(requests, batch):
    """The requests as slots, stably sorted by level."""
    return [
        (
            batch.row(r.stream),
            float(r.weight).hex(),
            r.level,
            float("inf" if r.demand_mbps is None else r.demand_mbps).hex(),
        )
        for r in sorted(requests, key=lambda r: r.level)
    ]


def slot_levels(template):
    """Each slot's level, from the template's contiguous level groups."""
    levels = np.empty(template.rows.size, dtype=np.int64)
    for level, lo, hi, *_ in template.groups:
        levels[lo:hi] = level
    return levels


def compiled_slots(template, column):
    """The slots that file a request this step: all but rule-2 slots
    whose demand is not above 1e-9 (the water-fill's gate)."""
    if template is None:
        return []
    demand = template.demands(column)
    levels = slot_levels(template)
    return [
        (
            int(template.rows[i]),
            float(template.weight[i]).hex(),
            int(levels[i]),
            float(demand[i]).hex(),
        )
        for i in range(template.rows.size)
        if levels[i] != LEVEL_SCHEDULED_ELSEWHERE or demand[i] > 1e-9
    ]


def assert_templates_match(templates, requests, sched, batch, backlog):
    column = backlog_column(batch, backlog)
    assert set(templates) <= set(sched.usable_paths)
    for path in sched.path_names:
        assert compiled_slots(templates.get(path), column) == (
            expected_slots(requests[path], batch)
        ), path


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=cases())
def test_compiled_templates_equal_allocate_inner(case):
    *state, backlog = case
    sched, engine = build(*state)
    templates = engine.compile(fallback=False)
    requests = sched._allocate_inner(0, backlog)
    assert_templates_match(templates, requests, sched, engine.batch, backlog)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=cases())
def test_fallback_templates_equal_fallback_requests(case):
    *state, backlog = case
    sched, engine = build(*state)
    templates = engine.compile(fallback=True)
    requests = sched._fallback_requests(backlog)
    assert_templates_match(templates, requests, sched, engine.batch, backlog)


def test_interleaved_rules_keep_stream_order_on_a_path():
    """A later stream's rule-1 slot sorts before an earlier stream's
    rule-3 slot; within a level, slots keep stream order."""
    specs = [
        StreamSpec(name="bulk", elastic=True, nominal_mbps=10.0),
        StreamSpec(name="ctl", required_mbps=4.0, probability=0.95),
        StreamSpec(name="fill", elastic=True, nominal_mbps=2.0),
    ]
    rates = {"bulk": {"A": 6.0}, "ctl": {"A": 4.0}, "fill": {"B": 1.0}}
    backlog = {"bulk": None, "ctl": 2.0, "fill": None}
    sched, engine = build(["A", "B"], set(), specs, specs, rates, [2, 0, 1])
    templates = engine.compile(fallback=False)
    batch = engine.batch
    assert [int(r) for r in templates["A"].rows] == [
        batch.row("ctl"),
        batch.row("bulk"),
        batch.row("fill"),
    ]
    assert_templates_match(
        templates, sched._allocate_inner(0, backlog), sched, batch, backlog
    )


def test_guaranteed_elastic_spec_is_a_duplicate_request():
    """The compile refuses what water_fill refuses, with its message."""
    specs = [
        StreamSpec(name="bulk", elastic=True, nominal_mbps=10.0),
        StreamSpec(
            name="video",
            required_mbps=5.0,
            probability=0.9,
            elastic=True,
            nominal_mbps=10.0,
        ),
        StreamSpec(
            name="later",
            required_mbps=1.0,
            probability=0.9,
            elastic=True,
            nominal_mbps=3.0,
        ),
    ]
    rates = {"bulk": {"A": 3.0}, "video": {"B": 5.0}, "later": {"A": 1.0}}
    sched, engine = build(["A", "B"], set(), specs, specs, rates, [0, 1, 2])
    message = "duplicate request for stream 'video' on one path"
    with pytest.raises(ConfigurationError, match=message):
        engine.compile(fallback=False)
    requests = sched._allocate_inner(0, {s.name: None for s in specs})
    with pytest.raises(ConfigurationError, match=message):
        water_fill(requests["B"], 10.0)


def test_no_streams_compile_to_no_templates():
    _, engine = build(["A", "B"], set(), [], [], {}, [])
    assert engine.compile(fallback=False) == {}
    assert engine.compile(fallback=True) == {}


def test_every_compile_is_counted():
    obs = Observability()
    specs = [StreamSpec(name="ctl", required_mbps=4.0, probability=0.95)]
    _, engine = build(
        ["A"], set(), specs, specs, {"ctl": {"A": 4.0}}, [0], obs=obs
    )
    engine.compile(fallback=False)
    engine.compile(fallback=True)
    assert obs.metrics.counter("delivery.template_compiles").value == 2
