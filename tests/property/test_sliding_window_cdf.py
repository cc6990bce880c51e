"""Differential property tests: the sliding window vs a re-sorted mirror.

The window's contract is *bit-identity*, not approximate agreement: its
snapshot must hold exactly the array a freshly built
:class:`EmpiricalCDF` over the same window contents would, and its
``percentile`` must return the exact float that CDF's would.  Hypothesis
drives random update/extend sequences (with duplicates, negative values,
zeros, and tiny/huge magnitudes) against a ``deque(maxlen=window)``
mirror.  A program test adds restores and snapshots and holds the two
things other code relies on: the snapshot cache's identity between
invalidation points, and the monitor's KS check after a restore.

``derandomize=True`` keeps the suite reproducible run-to-run — these
tests also gate the golden regression suite's byte-identity claim, so
they must themselves be deterministic.
"""

import json
from collections import deque

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF, ks_distance
from repro.monitoring.monitor import PathMonitor
from repro.obs.context import Observability
from repro.series import unpack_series

value_strategy = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 50.0]),  # force collisions
)

stream_strategy = st.lists(value_strategy, min_size=1, max_size=120)

window_strategy = st.integers(min_value=2, max_value=30)


def _normalized(v: float) -> float:
    return 0.0 if v == 0.0 else float(v)


def _mirror(values, window: int) -> deque:
    return deque((_normalized(v) for v in values), maxlen=window)


@settings(derandomize=True, max_examples=60)
@given(stream_strategy, window_strategy)
def test_window_contents_match_mirror(values, window):
    cdf = SlidingWindowCDF(window=window)
    mirror: deque = deque(maxlen=window)
    for v in values:
        cdf.update(v)
        mirror.append(_normalized(v))
        assert sorted(mirror) == list(cdf.snapshot().samples)
        assert list(mirror) == cdf.window_values()


@settings(derandomize=True, max_examples=60)
@given(
    stream_strategy,
    window_strategy,
    st.floats(min_value=0.0, max_value=100.0),
)
def test_quantiles_bit_identical(values, window, q):
    cdf = SlidingWindowCDF(window=window)
    cdf.extend(values)
    ref = EmpiricalCDF(_mirror(values, window))
    assert cdf.percentile(q) == ref.percentile(q)
    assert cdf.snapshot().percentile(q) == ref.percentile(q)


@settings(derandomize=True, max_examples=40)
@given(stream_strategy, window_strategy)
def test_snapshot_equals_batch_construction(values, window):
    cdf = SlidingWindowCDF(window=window)
    cdf.extend(values)
    snap = cdf.snapshot()
    ref = EmpiricalCDF(_mirror(values, window))
    assert np.array_equal(snap.samples, ref.samples)
    # And the snapshot array is decoupled from further updates.
    frozen = snap.samples.copy()
    cdf.update(123.456)
    assert np.array_equal(snap.samples, frozen)


#: Few distinct values, so full windows sit close to their reference
#: and checks open quiet horizons for a restore to land inside.
_tied = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0])
_sample = _tied | value_strategy
op_strategy = st.one_of(
    st.tuples(st.just("update"), _tied),
    st.tuples(st.just("update"), _sample),
    st.tuples(st.just("extend"), st.lists(_sample, max_size=6)),
    st.tuples(st.just("save"), st.none()),
    st.tuples(st.just("restore"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("check"), st.none()),
    st.tuples(st.just("check"), st.none()),
    st.tuples(st.just("remap"), st.none()),
)


# A restore of three samples inside a quiet horizon of nine updates: a
# restore counted by the samples it replays would leave the horizon open.
_RESTORE_CASE = (
    20,
    0.5,
    [("update", 1.0)] * 3
    + [("save", None)]
    + [("update", 1.0)] * 20
    + [("remap", None), ("check", None), ("restore", 1), ("check", None)],
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 8, 20]),
    st.sampled_from([0.2, 0.25, 0.5, 1.0]),
    st.lists(op_strategy, min_size=20, max_size=120),
)
@example(*_RESTORE_CASE)
def test_window_program(n, threshold, ops):
    """Update / extend / restore / snapshot / check against a mirror.

    * every snapshot holds the mirror's sorted contents, and is the
      object the previous snapshot returned unless an ``update``, an
      ``extend`` (empty ones included) or a restore came between;
    * every check decides as a KS distance computed from scratch, and
      the first check against a reference after a restore computes it.
    """
    obs = Observability()
    monitor = PathMonitor("A", window=n, ks_threshold=threshold, obs=obs)
    window = monitor.bandwidth
    evaluations = obs.metrics.counter("monitor.ks_evaluations")
    mirror: deque = deque(maxlen=n)
    saved = [window.state_dict()]
    reference = None
    last = None  # the snapshot this program last read
    stale = True  # an invalidation point passed since ``last``
    restored = False  # a restore since the last check
    for op, arg in ops:
        if op == "update":
            window.update(arg)
            mirror.append(_normalized(arg))
            stale = True
        elif op == "extend":
            window.extend(arg)
            mirror.extend(_normalized(v) for v in arg)
            stale = True
        elif op == "save":
            saved.append(json.loads(json.dumps(window.state_dict())))
        elif op == "restore":
            state = saved[arg % len(saved)]
            window.load_state_dict(state)
            mirror = deque(unpack_series(state["values"]).tolist(), maxlen=n)
            stale = restored = True
        elif not mirror:
            continue  # nothing to freeze, check or pin
        elif op == "snapshot":
            snap = window.snapshot()
            assert (snap is last) is not stale
            assert np.array_equal(snap.samples, sorted(mirror))
            last, stale = snap, False
        elif op == "remap":
            monitor.mark_remapped()
            reference = EmpiricalCDF(mirror)
        else:
            before = evaluations.value
            want = (
                reference is None
                or ks_distance(EmpiricalCDF(mirror), reference) > threshold
            )
            assert monitor.cdf_changed_significantly() == want
            if reference is not None:
                if restored:
                    assert evaluations.value == before + 1
                restored = False
        assert window.window_values() == list(mirror)
