"""A snapshot's delivered series: packed float64, exact, and loud.

``repro.series.pack_series`` writes a series as base64 of its
little-endian float64 bytes; ``unpack_series`` reads it back.  The round
trip must be the identity on every float64 bit pattern (a resumed run's
float folds start from these values), and a string that is not such a
packing must fail the restore, never load as a shorter series.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.spec import StreamSpec
from repro.errors import CheckpointError
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.series import pack_series, unpack_series
from tests.oracles import ScalarReferenceService

MAX = np.finfo(np.float64).max
#: Smallest subnormal and largest subnormal float64.
TINY = 5e-324
SUBNORMAL = 2.225073858507201e-308

SERIES = arrays(
    np.float64,
    st.integers(0, 64),
    elements=st.floats(width=64, allow_nan=True, allow_infinity=True),
)


def roundtrips(pack, unpack, values: np.ndarray) -> bool:
    """Whether ``unpack(pack(values))`` has the same float64 bits and
    ``pack`` wrote strict-JSON text."""
    text = pack(values)
    back = np.asarray(unpack(json.loads(json.dumps(text))), dtype="<f8")
    return back.tobytes() == values.astype("<f8").tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SERIES)
@example(np.array([-0.0, 0.0]))
@example(np.array([TINY, -TINY, SUBNORMAL]))
@example(np.array([MAX, -MAX]))
@example(np.array([0.1 + 0.2, 1 / 3, 2 / 3, 12.345678901234567]))
@example(np.array([]))
def test_pack_unpack_is_exact(values):
    assert roundtrips(pack_series, unpack_series, values)


def test_pack_takes_a_list_as_the_oracle_keeps_it():
    values = [0.1 + 0.2, -0.0, TINY]
    assert unpack_series(
        pack_series(values)
    ).tolist() == values


def _pack_float32(values) -> str:
    with np.errstate(over="ignore"):
        raw = np.asarray(values, dtype="<f4").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _unpack_float32(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f4")


def test_a_float32_codec_fails_the_property():
    """Kill-check: the property sees a lossy codec."""
    lossy = find(
        SERIES,
        lambda values: not roundtrips(_pack_float32, _unpack_float32, values),
        settings=settings(derandomize=True, database=None),
    )
    assert lossy.size


# ----------------------------------------------------------------------
# a bad string fails the restore
# ----------------------------------------------------------------------
def _snapshot(service_cls):
    realization = make_figure8_testbed().realize(
        seed=11, duration=30.0, dt=0.1
    )
    service = service_cls(realization, warmup_intervals=100)
    service.open_stream(
        StreamSpec(name="crit", required_mbps=5.0, probability=0.9)
    )
    service.advance(2.0)
    return realization, json.loads(json.dumps(service.state_dict()))


def _bytes_of(text: str) -> bytes:
    return base64.b64decode(text, validate=True)


CORRUPTIONS = {
    "not base64": lambda text: "not*base64!",
    "bad padding": lambda text: text[:-1],
    "not text": lambda text: [1.0, 2.0],
    "partial float": lambda text: base64.b64encode(
        _bytes_of(text)[:-3]
    ).decode("ascii"),
    "one float short": lambda text: base64.b64encode(
        _bytes_of(text)[:-8]
    ).decode("ascii"),
    "one float long": lambda text: base64.b64encode(
        _bytes_of(text) + bytes(8)
    ).decode("ascii"),
}


@pytest.mark.parametrize(
    "service_cls", [IQPathsService, ScalarReferenceService]
)
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_bad_series_raises_checkpoint_error(service_cls, corruption):
    realization, state = _snapshot(service_cls)
    text = state["delivered"]["crit"]
    assert unpack_series(text).size == 20
    state["delivered"]["crit"] = CORRUPTIONS[corruption](text)
    fresh = service_cls(realization, warmup_intervals=100)
    with pytest.raises(CheckpointError):
        fresh.load_state_dict(state)


@pytest.mark.parametrize(
    "service_cls", [IQPathsService, ScalarReferenceService]
)
def test_the_intact_series_restores(service_cls):
    realization, state = _snapshot(service_cls)
    fresh = service_cls(realization, warmup_intervals=100)
    fresh.load_state_dict(state)
    np.testing.assert_array_equal(
        fresh.report("crit").mbps,
        unpack_series(state["delivered"]["crit"]),
    )
    assert json.loads(json.dumps(fresh.state_dict())) == state
