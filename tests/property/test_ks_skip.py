"""The KS remap trigger's skip rule: the 1/n bound and the decisions it keeps.

:meth:`PathMonitor.cdf_changed_significantly` computes the KS distance
only when it could have crossed ``ks_threshold`` since the last time it
was computed.  Two properties carry that:

* (a) on a full window of ``n`` samples, replacing one sample moves the
  computed KS distance to a fixed reference by at most ``1/n`` — with
  ties, duplicates, ``-0.0`` and references of another size;
* (b) a skipping monitor and an always-evaluating twin, built here from
  :func:`ks_distance` alone, return the same decision on every call of
  any program of observations, checks and remaps — thresholds with
  ``threshold * n`` an integer, filling windows and repeated checks
  between two samples included.

``derandomize=True``: (b) gates the claim that every decision sequence,
and so every run digest, is unchanged by the rule.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF, ks_distance
from repro.monitoring.monitor import PathMonitor

value_strategy = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.0, 3.0, 5.0]),  # ties
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
)


# ----------------------------------------------------------------------
# (a) one replacement moves the distance by at most 1/n
# ----------------------------------------------------------------------
@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=25).flatmap(
        lambda n: st.lists(value_strategy, min_size=n, max_size=n)
    ),
    st.lists(value_strategy, min_size=1, max_size=30),
    st.lists(value_strategy, min_size=1, max_size=40),
)
def test_one_replacement_moves_distance_at_most_one_over_n(
    initial, reference, replacements
):
    n = len(initial)
    ref = EmpiricalCDF(reference)
    window = SlidingWindowCDF(n)
    window.extend(initial)
    assert window.full
    before = ks_distance(window.snapshot(), ref)
    for v in replacements:
        window.update(v)
        after = ks_distance(window.snapshot(), ref)
        # Both are k/n - j/m in floats: the slack above 1/n is rounding.
        assert abs(after - before) <= 1.0 / n + 1e-12
        before = after


# ----------------------------------------------------------------------
# (b) skipping monitor == always-evaluating twin
# ----------------------------------------------------------------------
class _EvaluatingTwin:
    """The trigger with no skip rule: a distance on every call."""

    def __init__(self, window: int, threshold: float):
        self.values: deque = deque(maxlen=window)
        self.threshold = threshold
        self.reference = None

    def observe(self, v: float) -> None:
        self.values.append(v)

    def mark_remapped(self) -> None:
        self.reference = EmpiricalCDF(self.values)

    def check(self) -> bool:
        if self.reference is None:
            return True
        distance = ks_distance(EmpiricalCDF(self.values), self.reference)
        return distance > self.threshold


#: Few distinct values, so distances move in whole counts and land on
#: the threshold exactly; remaps rarer than samples, so they can drift.
_tied = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 5.0])
_observe = st.tuples(st.just("observe"), _tied)
op_strategy = st.one_of(
    _observe,
    _observe,
    st.tuples(st.just("observe"), value_strategy),
    st.tuples(st.just("check"), st.none()),
    st.tuples(st.just("check"), st.none()),
    st.tuples(st.just("remap"), st.none()),
)


@st.composite
def _window_and_threshold(draw):
    n = draw(st.sampled_from([2, 3, 4, 5, 8, 10, 20]))
    # threshold * n an integer (the boundary the margin guards), or not.
    integral = st.integers(min_value=1, max_value=n).map(lambda k: k / n)
    threshold = draw(
        st.one_of(integral, integral, st.floats(min_value=1e-3, max_value=1.0))
    )
    return n, threshold


def _run_program(window, ops) -> list[bool]:
    """Drive monitor and twin through ``ops``; the decisions, all equal."""
    n, threshold = window
    monitor = PathMonitor("A", window=n, ks_threshold=threshold)
    twin = _EvaluatingTwin(n, threshold)
    decisions = []
    for op, value in ops:
        if op == "observe":
            monitor.observe_bandwidth(value)
            twin.observe(0.0 if value == 0.0 else float(value))
        elif not twin.values:
            continue  # nothing to check or pin yet
        elif op == "remap":
            monitor.mark_remapped()
            twin.mark_remapped()
        else:
            want = twin.check()
            decisions.append(want)
            assert monitor.cdf_changed_significantly() == want, decisions
    return decisions


# A distance of exactly 2/10 whose float value is above 0.2: 0.8 - 0.6
# is 0.20000000000000007.  It is reached two samples after a check that
# measured 0, the count the one-count margin withholds from the horizon.
_MARGIN_CASE = (
    (10, 0.2),
    [("observe", v) for v in (5.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0)]
    + [("remap", None), ("check", None)]
    + [("observe", 1.0), ("check", None)] * 2,
)
# A filling window: capacity 10, two samples pinned; one more sample
# moves the distance by 1/3, more than one count of the full window.
_FILLING_CASE = (
    (10, 0.2),
    [("observe", 5.0), ("observe", 5.0), ("remap", None), ("check", None)]
    + [("observe", 1.0), ("check", None)],
)


def _observed(values):
    return [("observe", v) for v in values]


@st.composite
def _cases(draw):
    """A window, a threshold and a program of one of three shapes.

    ``free`` is any interleaving.  ``full`` and ``filling`` pin a
    reference on a full or a partly filled window, then feed one value
    with a check after every sample, so the distance climbs a count at
    a time onto the threshold.
    """
    window = n, _ = draw(_window_and_threshold())
    ops = draw(st.lists(op_strategy, max_size=120))
    shape = draw(st.sampled_from(["free", "full", "filling"]))
    if shape != "free":
        size = n if shape == "full" else draw(st.integers(1, n - 1))
        warm = draw(st.lists(_tied, min_size=size, max_size=size))
        # Outside the tied values the distance climbs a count per sample.
        value = draw(st.sampled_from([-1.0, 9.0]) | _tied)
        steps = draw(st.integers(min_value=1, max_value=2 * n))
        ops = (
            _observed(warm)
            + [("remap", None), ("check", None)]
            + [("observe", value), ("check", None)] * steps
            + ops
        )
    return window, ops


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_cases())
@example(_MARGIN_CASE)
@example(_FILLING_CASE)
def test_skipping_monitor_decides_like_evaluating_twin(case):
    _run_program(*case)


def test_boundary_programs_end_on_a_shift():
    """The two hand-built programs really reach a firing check."""
    assert _run_program(*_MARGIN_CASE) == [False, False, True]
    assert _run_program(*_FILLING_CASE) == [False, True]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    _window_and_threshold(),
    st.lists(value_strategy, min_size=1, max_size=40),
    st.lists(st.lists(value_strategy, max_size=6), max_size=60),
)
def test_scheduler_shaped_program(window, warm, steps):
    """The scheduler's use: two checks per step, remap when one fires.

    A step may bring no sample (a monitor blackout); each step checks
    twice, as the remap check and the health layer do.
    """
    ops = [("observe", v) for v in warm] + [("remap", None)]
    for batch in steps:
        ops += [("observe", v) for v in batch]
        ops += [("check", None), ("check", None)]
    n, threshold = window
    monitor = PathMonitor("A", window=n, ks_threshold=threshold)
    twin = _EvaluatingTwin(n, threshold)
    for op, value in ops:
        if op == "observe":
            monitor.observe_bandwidth(value)
            twin.observe(0.0 if value == 0.0 else float(value))
        elif op == "remap":
            monitor.mark_remapped()
            twin.mark_remapped()
        else:
            want = twin.check()
            assert monitor.cdf_changed_significantly() == want
            if want:
                monitor.mark_remapped()
                twin.mark_remapped()
