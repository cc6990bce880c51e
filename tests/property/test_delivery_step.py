"""One delivery step's water-fill and grant accounting equal the scalar's.

``VectorizedDelivery._water_fill`` shares each path's capacity among its
compiled slots, one contiguous level group at a time, and
``_apply_grants`` turns the grants into bytes, drains the backlog and
adds the delivered Mbps per row.  The reference is
:func:`repro.core.scheduler.water_fill` over the request lists PGOS
files, followed by the grant accounting of
:func:`repro.core.scheduler.deliver_interval`: a grant is converted to
bytes, a bounded stream's bytes are capped at (and drain) its backlog,
and each stream's delivered Mbps is a left fold over paths in path
order.  For random scheduler states and capacities this module holds
every stream's delivered Mbps and backlog bytes equal by float hex, so
``-0.0`` and ``0.0`` are told apart.  Forced cases pin the regimes a
random draw rarely hits: every slot capped on the first pass, none
capped, a rule-2 excess of exactly ``1e-9``, ``remaining`` landing on
``0.0`` or starting at ``-0.0``, and groups wide enough (more than 8
slots) that a pairwise weight sum would round differently from the
scalar's sequential one.  Derandomized: a failure reproduces on every
run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pgos import LEVEL_SCHEDULED_HERE
from repro.core.scheduler import water_fill
from repro.core.spec import StreamSpec
from repro.units import bytes_in_interval, mbps_from_bytes
from tests.property.test_delivery_templates import (
    DT,
    backlog_column,
    build,
    cases,
)

#: Capacities a path can offer, edge cases first: signed zeros, the
#: water-fill's 1e-12 threshold, and one that caps every demand.
CAPACITIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-12, 2e-12, 5.0, 1e6]),
    st.floats(min_value=0.0, max_value=120.0),
)


def scalar_step(sched, requests, capacity, backlog_bytes):
    """water_fill per path, then deliver_interval's grant accounting."""
    delivered = {}
    for path in sched.path_names:
        granted = water_fill(requests[path], capacity[path])
        for name, mbps in granted.items():
            if mbps <= 0:
                continue
            nbytes = bytes_in_interval(mbps, DT)
            if name in backlog_bytes:
                nbytes = min(nbytes, backlog_bytes[name])
                backlog_bytes[name] -= nbytes
            delivered[name] = delivered.get(name, 0.0) + mbps_from_bytes(
                nbytes, DT
            )
    return delivered


def engine_step(sched, engine, capacity, backlog, fallback):
    """The engine's per-path water-fill and grants over one step."""
    templates = engine.compile(fallback=fallback)
    column = backlog_column(engine.batch, backlog)
    delivered_col = np.zeros(engine.batch.capacity)
    for path in sched.path_names:
        template = templates.get(path)
        if template is not None:
            granted = engine._water_fill(template, column, capacity[path])
            engine._apply_grants(template, granted, delivered_col, DT)
    return delivered_col


def check_step(case, capacity, fallback=False):
    """Run both sides on one state; return the scalar's requests and
    delivered Mbps for regime checks."""
    paths, quarantined, specs, row_specs, rates, order, backlog = case
    sched, engine = build(paths, quarantined, specs, row_specs, rates, order)
    batch = engine.batch
    backlog_bytes = {
        name: bytes_in_interval(mbps, DT)
        for name, mbps in backlog.items()
        if mbps is not None
    }
    for name, nbytes in backlog_bytes.items():
        batch.set_backlog(name, nbytes)
    requests = (
        sched._fallback_requests(backlog)
        if fallback
        else sched._allocate_inner(0, backlog)
    )
    delivered = scalar_step(sched, requests, capacity, backlog_bytes)
    delivered_col = engine_step(sched, engine, capacity, backlog, fallback)
    for spec in specs:
        row = batch.row(spec.name)
        assert float(delivered_col[row]).hex() == (
            delivered.get(spec.name, 0.0).hex()
        ), spec.name
        if spec.name in backlog_bytes:
            assert float(batch.backlog_bytes[row]).hex() == (
                backlog_bytes[spec.name].hex()
            ), spec.name
    return requests, delivered


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=cases(), data=st.data())
def test_step_equals_scalar_water_fill_and_accounting(case, data):
    capacity = {p: data.draw(CAPACITIES) for p in case[0]}
    check_step(case, capacity, fallback=data.draw(st.booleans()))


# ----------------------------------------------------------------------
# forced regimes
# ----------------------------------------------------------------------
def guaranteed(name):
    return StreamSpec(name=name, required_mbps=4.0, probability=0.95)


def elastic(name):
    return StreamSpec(name=name, elastic=True, nominal_mbps=5.0)


#: Sixteen rule-1 weights on path A; their sequential sum, and that of
#: the last twelve, differ from numpy's pairwise ``np.sum``.
WIDE = [1.0 / (i + 3) for i in range(16)]


def wide_case(backlog_of):
    """Sixteen streams mapped on A (rule 1 there, rule 2 on B) plus one
    elastic stream on both paths; ``backlog_of(i, weight)`` in Mbps."""
    specs = [guaranteed(f"g{i:02d}") for i in range(len(WIDE))]
    specs.append(elastic("e"))
    rates = {s.name: {"A": w} for s, w in zip(specs, WIDE)}
    backlog = {
        s.name: backlog_of(i, w) for i, (s, w) in enumerate(zip(specs, WIDE))
    }
    backlog["e"] = None
    return ["A", "B"], set(), specs, specs, rates, range(len(specs)), backlog


def level0_met(requests, granted):
    """Per rule-1 request on path A: was its whole demand granted?"""
    return [
        granted[r.stream] == r.demand_mbps
        for r in requests["A"]
        if r.level == LEVEL_SCHEDULED_HERE
    ]


def test_wide_weights_are_order_sensitive():
    """The forced wide cases below can tell a pairwise sum apart."""
    for weights in (WIDE, WIDE[4:]):
        w = np.asarray(weights)
        assert np.sum(w) != np.add.accumulate(w)[-1]


def test_every_slot_capped_on_the_first_pass():
    case = wide_case(lambda i, w: w / 2)
    capacity = {"A": 100.0, "B": 3.0}
    requests, _ = check_step(case, capacity)
    granted = water_fill(requests["A"], capacity["A"])
    assert all(level0_met(requests, granted))
    # The leftover reaches the elastic level: remaining was folded.
    assert granted["e"] > 0


def test_no_slot_capped():
    # Rule 1 on A and rule 2 on B (all sixteen excesses file) both
    # share a capacity below every fair-share demand.
    case = wide_case(lambda i, w: 10.0)
    capacity = {"A": 0.5, "B": 0.5}
    requests, _ = check_step(case, capacity)
    granted = water_fill(requests["A"], capacity["A"])
    assert not any(level0_met(requests, granted))
    assert sum(r.level == 1 for r in requests["B"]) == len(WIDE)


def test_partial_cap_then_a_second_pass():
    # Four small demands cap on the first pass; the twelve left share
    # what remains over a recomputed weight fold.
    case = wide_case(lambda i, w: 0.1 * w if i < 4 else 10.0)
    capacity = {"A": 0.5, "B": 0.0}
    requests, _ = check_step(case, capacity)
    granted = water_fill(requests["A"], capacity["A"])
    assert level0_met(requests, granted) == [True] * 4 + [False] * 12


def test_rule2_excess_of_exactly_1e9_files_no_request():
    assert 2e-9 - 1e-9 == 1e-9
    specs = [guaranteed("at"), guaranteed("over"), elastic("e")]
    rates = {"at": {"A": 1e-9}, "over": {"A": 1e-9}}
    backlog = {"at": 2e-9, "over": 2.5e-9, "e": None}
    case = (["A", "B"], set(), specs, specs, rates, [0, 1, 2], backlog)
    requests, delivered = check_step(case, {"A": 10.0, "B": 10.0})
    spilled = [r.stream for r in requests["B"] if r.level == 1]
    assert spilled == ["over"]
    assert delivered["e"] > 0


@pytest.mark.parametrize(
    "capacity, demands",
    [
        (3.0, (1.0, 2.0)),  # the capped demands use it up: 0.0 exactly
        (1.0, (0.5 + 1e-12, 0.5 + 1e-12)),  # overshoot clamps to 0.0
        (-0.0, (1.0, 2.0)),  # starts at -0.0: nothing is shared
    ],
)
def test_remaining_lands_on_zero(capacity, demands):
    specs = [guaranteed("g0"), guaranteed("g1"), elastic("e")]
    rates = {"g0": {"A": demands[0]}, "g1": {"A": demands[1]}}
    backlog = {"g0": demands[0], "g1": demands[1], "e": None}
    case = (["A"], set(), specs, specs, rates, [0, 1, 2], backlog)
    _, delivered = check_step(case, {"A": capacity})
    assert "e" not in delivered
