"""Differential property tests: rolling percentile vs numpy's windows matrix.

Figure 4's percentile predictor rolls one sorted window across the
series instead of partitioning a dense ``positions x history`` matrix.
Its contract is *bit-identity* with the matrix formula: every threshold
is the exact float ``np.percentile`` of the same window returns, so
every Figure-4 failure rate is unchanged.  Hypothesis drives series with
ties, duplicates, negative values and zeros, window sizes from 2 to the
series length, and both the boundary and arbitrary percentiles.

``derandomize=True`` keeps the suite reproducible run-to-run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.errors import percentile_prediction_failure_rate
from repro.monitoring.predictors import PercentilePredictor

value_strategy = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, 1.0, -3.5, 50.0]),  # force ties
)

q_strategy = st.one_of(
    st.sampled_from([0.0, 100.0, 10.0]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    # Dense decimal q: most have a q / 100 whose last ulp matters.
    st.integers(min_value=0, max_value=10**6).map(lambda k: k / 10**4),
)


def _matrix_percentiles(x: np.ndarray, window: int, q: float) -> np.ndarray:
    """The formula the rolling window replaced: one row per window."""
    expected = np.full(x.size, np.nan)
    if x.size > window:
        windows = np.lib.stride_tricks.sliding_window_view(x, window)
        expected[window:] = np.percentile(windows, q, axis=1)[:-1]
    return expected


def _matrix_failure_rate(x, q, history, horizon, stride, mode):
    """The windows-matrix failure rate, kept here as the oracle."""
    last_start = x.size - history - horizon
    starts = np.arange(0, last_start + 1, stride)
    windows = np.lib.stride_tricks.sliding_window_view(x, history)
    thresholds = np.percentile(windows[starts], q, axis=1)
    future = np.lib.stride_tricks.sliding_window_view(x, horizon)
    if mode == "mean":
        outcome = future[starts + history].mean(axis=1)
    else:
        outcome = future[starts + history].min(axis=1)
    failures = outcome < thresholds
    return float(np.mean(failures))


@st.composite
def series_and_window(draw):
    values = draw(st.lists(value_strategy, min_size=2, max_size=150))
    window = draw(st.integers(min_value=2, max_value=len(values)))
    return np.array(values, dtype=float), window


@settings(derandomize=True, max_examples=200, deadline=None)
@given(series_and_window(), q_strategy)
def test_predict_series_matches_windows_matrix(series_window, q):
    x, window = series_window
    got = PercentilePredictor(q=q, window=window).predict_series(x)
    assert np.array_equal(
        got, _matrix_percentiles(x, window, q), equal_nan=True
    )


def test_random_series_sweep():
    # Longer windows and more distinct q than Hypothesis's shrink-friendly
    # draws reach: a last-ulp slip in the interpolation shows up here.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(3, 400))
        window = int(rng.integers(2, n))
        q = float(rng.uniform(0.0, 100.0))
        x = 50 + 5 * rng.standard_normal(n)
        if rng.random() < 0.5:
            x = np.round(x)  # ties
        got = PercentilePredictor(q=q, window=window).predict_series(x)
        assert np.array_equal(
            got, _matrix_percentiles(x, window, q), equal_nan=True
        ), (n, window, q)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-3, max_value=3).map(float),
        min_size=2,
        max_size=120,
    ),
    st.integers(min_value=2, max_value=40),
    q_strategy,
)
def test_predict_series_exact_on_heavy_ties(values, window, q):
    x = np.array(values)
    window = min(window, x.size)
    got = PercentilePredictor(q=q, window=window).predict_series(x)
    assert np.array_equal(
        got, _matrix_percentiles(x, window, q), equal_nan=True
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.lists(value_strategy, min_size=12, max_size=200),
    q_strategy,
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=10),
    st.sampled_from([1, 7]),
    st.sampled_from(["mean", "min"]),
)
def test_failure_rate_matches_windows_matrix(
    values, q, history, horizon, stride, mode
):
    x = np.array(values, dtype=float)
    history = min(history, x.size - horizon)
    got = percentile_prediction_failure_rate(
        x, q=q, history=history, horizon=horizon, stride=stride, mode=mode
    )
    assert got == _matrix_failure_rate(x, q, history, horizon, stride, mode)
