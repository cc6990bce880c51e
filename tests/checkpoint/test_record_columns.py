"""A snapshot's session records: packed run-only columns, exact and loud.

The driver writes of each record only what the run determined — the
outcome, the shed/truncated/violated flags and the four optional floats
— as packed float64 columns; the rest of a record is its plan.  The
round trip must give back every record bit for bit, ``None`` as
``None``; a NaN in a present field must fail the save, as strict JSON
fails it; and a column that does not hold one packed value per arrived
plan must fail the restore.
"""

import base64
import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.series import pack_series
from repro.workload.driver import (
    SessionRecord,
    _pack_records,
    _unpack_records,
)
from repro.workload.scenarios import make_scale_run, make_scenario

OUTCOMES = ("admitted", "degraded", "rejected")
OPTIONAL = ("opened_at", "closed_at", "mean_mbps", "attainment")
#: Smallest and largest subnormal float64.
TINY = 5e-324
SUBNORMAL = 2.225073858507201e-308

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
MAYBE = st.none() | FINITE


@st.composite
def records(draw):
    count = draw(st.integers(0, 12))
    return [
        SessionRecord(
            index=i,
            name=f"s{i}",
            tenant=draw(st.sampled_from(["gold", "bronze"])),
            template=draw(st.sampled_from(["video", "bulk"])),
            arrival_s=draw(FINITE),
            holding_s=draw(FINITE),
            outcome=draw(st.sampled_from(OUTCOMES)),
            opened_at=draw(MAYBE),
            closed_at=draw(MAYBE),
            shed=draw(st.booleans()),
            truncated=draw(st.booleans()),
            mean_mbps=draw(MAYBE),
            attainment=draw(MAYBE),
            violated=draw(st.booleans()),
        )
        for i in range(count)
    ]


def record(index=0, **fields) -> SessionRecord:
    base = dict(
        index=index,
        name=f"s{index}",
        tenant="gold",
        template="video",
        arrival_s=1.5,
        holding_s=3.0,
        outcome="admitted",
    )
    return SessionRecord(**{**base, **fields})


def roundtrips(pack, unpack, saved) -> bool:
    """Whether ``unpack(pack(saved))`` through strict JSON gives back
    every record with the same float bits (``repr`` tells ``-0.0`` from
    ``0.0`` and prints the shortest exact digits)."""
    columns = json.loads(json.dumps(pack(saved), allow_nan=False))
    # A record's plan fields are the record's own here.
    back = unpack(columns, saved)
    return list(map(repr, back.values())) == list(map(repr, saved))


def refuses_nan(pack, saved) -> bool:
    """Whether ``pack`` fails on a NaN in each present optional field."""
    for field in OPTIONAL:
        try:
            pack([*saved, record(len(saved), **{field: math.nan})])
        except ValueError:
            continue
        return False
    return True


@settings(derandomize=True, max_examples=200, deadline=None)
@given(records())
@example([record(opened_at=None, closed_at=None, mean_mbps=None)])
@example(
    [
        record(opened_at=-0.0, closed_at=0.0, mean_mbps=-0.0, attainment=0.0),
        record(1, opened_at=TINY, closed_at=SUBNORMAL, mean_mbps=-TINY),
        record(
            2,
            opened_at=0.1 + 0.2,
            closed_at=12.345678901234567,
            mean_mbps=1 / 3,
            attainment=2 / 3,
            shed=True,
            truncated=True,
            violated=True,
            outcome="degraded",
        ),
    ]
)
def test_records_round_trip_exactly(saved):
    assert roundtrips(_pack_records, _unpack_records, saved)
    assert refuses_nan(_pack_records, saved)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_present_field_fails_the_save(value):
    with pytest.raises(ValueError):
        _pack_records([record(mean_mbps=value)])


# ----------------------------------------------------------------------
# kill-checks: the properties see a broken codec
# ----------------------------------------------------------------------
def _pack_nan_as_none(saved):
    """A codec that saves a NaN field as ``None``."""
    return _pack_records(
        [
            replace(
                r,
                **{
                    f: None
                    for f in OPTIONAL
                    if getattr(r, f) is not None
                    and math.isnan(getattr(r, f))
                },
            )
            for r in saved
        ]
    )


def _pack_without_flags(saved):
    columns = _pack_records(saved)
    del columns["flags"]
    return columns


def _unpack_without_flags(columns, plans):
    zeros = pack_series([0.0] * len(plans))
    return _unpack_records({**columns, "flags": zeros}, plans)


def test_a_codec_that_saves_nan_as_none_fails_the_property():
    assert not refuses_nan(_pack_nan_as_none, [record()])


def test_a_codec_without_flags_fails_the_property():
    lossy = find(
        records(),
        lambda saved: not roundtrips(
            _pack_without_flags, _unpack_without_flags, saved
        ),
        settings=settings(derandomize=True, database=None),
    )
    assert any(r.shed or r.truncated or r.violated for r in lossy)


# ----------------------------------------------------------------------
# a bad column fails the restore
# ----------------------------------------------------------------------
def _driver():
    return make_scale_run(
        make_scenario("baseline", duration=6.0), seed=0, max_sessions=30
    )


@pytest.fixture(scope="module")
def saved():
    driver = _driver()
    driver.begin(6.0)
    driver.advance_to(30)
    state = json.loads(json.dumps(driver.state_dict()))
    assert state["next_plan"] > 0
    return driver, state


@pytest.fixture
def snapshot(saved):
    return json.loads(json.dumps(saved[1]))


def _bytes_of(text: str) -> bytes:
    return base64.b64decode(text, validate=True)


CORRUPTIONS = {
    "not base64": lambda text: "not*base64!",
    "one value short": lambda text: base64.b64encode(
        _bytes_of(text)[:-8]
    ).decode("ascii"),
    "one value long": lambda text: base64.b64encode(
        _bytes_of(text) + bytes(8)
    ).decode("ascii"),
    "unknown code": lambda text: pack_series(
        [7.5] * (len(_bytes_of(text)) // 8)
    ),
}


#: Every column with every corruption; an optional column takes any
#: float, so it has no unknown code.
CASES = [
    (column, corruption)
    for column in ("outcome", "flags", *OPTIONAL)
    for corruption in sorted(CORRUPTIONS)
    if not (corruption == "unknown code" and column in OPTIONAL)
]


@pytest.mark.parametrize("column,corruption", CASES)
def test_a_bad_column_raises_checkpoint_error(snapshot, column, corruption):
    records = snapshot["records"]
    records[column] = CORRUPTIONS[corruption](records[column])
    with pytest.raises(CheckpointError):
        _driver().load_state_dict(snapshot)


def test_the_intact_columns_restore(saved, snapshot):
    """The records come back, and with them the loop state they imply:
    the open set, the departure heap and the shed set."""
    original, state = saved
    driver = _driver()
    driver.load_state_dict(snapshot)
    assert json.loads(json.dumps(driver.state_dict())) == state
    was, now = original._state, driver._state
    assert list(map(repr, now.records.values())) == list(
        map(repr, was.records.values())
    )
    assert now.open_sessions == was.open_sessions
    assert now.open_sessions
    assert now.shed_seen == was.shed_seen
    assert sorted(now.departures) == sorted(was.departures)
