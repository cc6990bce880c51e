"""Predictors: online/vectorized agreement and statistical behaviour."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.monitoring.predictors import (
    AR1Predictor,
    EWMAPredictor,
    MovingAveragePredictor,
    PercentilePredictor,
    SlidingMedianPredictor,
    default_average_predictors,
)


class TestMovingAverage:
    def test_mean_of_window(self):
        ma = MovingAveragePredictor(window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            ma.update(v)
        assert ma.predict() == pytest.approx(3.0)

    def test_not_ready_before_window_fills(self):
        ma = MovingAveragePredictor(window=3)
        ma.update(1.0)
        assert not ma.ready
        ma.update(2.0)
        ma.update(3.0)
        assert ma.ready

    def test_predict_before_any_sample_raises(self):
        with pytest.raises(ConfigurationError):
            MovingAveragePredictor().predict()

    def test_series_matches_online(self, rng):
        x = rng.random(200)
        vectorized = MovingAveragePredictor(window=10).predict_series(x)
        online = MovingAveragePredictor(window=10)
        expected = np.full(200, np.nan)
        for i, v in enumerate(x):
            if online.ready:
                expected[i] = online.predict()
            online.update(v)
        assert np.allclose(vectorized, expected, equal_nan=True)


class TestEWMA:
    def test_recursion(self):
        ewma = EWMAPredictor(alpha=0.5)
        ewma.update(10.0)
        ewma.update(20.0)
        assert ewma.predict() == pytest.approx(15.0)

    def test_series_matches_online(self, rng):
        x = rng.random(100)
        vectorized = EWMAPredictor(alpha=0.3).predict_series(x)
        online = EWMAPredictor(alpha=0.3)
        expected = np.full(100, np.nan)
        for i, v in enumerate(x):
            if online.ready:
                expected[i] = online.predict()
            online.update(v)
        assert np.allclose(vectorized, expected, equal_nan=True)

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            EWMAPredictor(alpha=0.0)


class TestSlidingMedian:
    def test_median_of_window(self):
        sma = SlidingMedianPredictor(window=3)
        for v in (1.0, 100.0, 2.0):
            sma.update(v)
        assert sma.predict() == 2.0

    def test_robust_to_bursts(self, rng):
        x = np.full(50, 10.0)
        x[25] = 1000.0  # one burst
        sma = SlidingMedianPredictor(window=9)
        out = sma.predict_series(x)
        assert np.nanmax(out) == 10.0

    def test_series_matches_online(self, rng):
        x = rng.random(120)
        vectorized = SlidingMedianPredictor(window=7).predict_series(x)
        online = SlidingMedianPredictor(window=7)
        expected = np.full(120, np.nan)
        for i, v in enumerate(x):
            if online.ready:
                expected[i] = online.predict()
            online.update(v)
        assert np.array_equal(vectorized, expected, equal_nan=True)


class TestAR1:
    def test_degenerates_to_mean_for_iid(self, rng):
        ar = AR1Predictor(window=200)
        x = 50 + 5 * rng.standard_normal(200)
        for v in x:
            ar.update(v)
        assert ar.predict() == pytest.approx(x.mean(), abs=2.0)

    def test_tracks_persistent_signal(self):
        ar = AR1Predictor(window=50)
        x = np.concatenate([np.full(25, 10.0), np.full(25, 20.0)])
        for v in x:
            ar.update(v)
        # Strong positive phi: prediction should stay near the last value.
        assert ar.predict() > 15.0

    def test_needs_samples(self):
        ar = AR1Predictor(window=10)
        with pytest.raises(ConfigurationError):
            ar.predict()


class TestPercentile:
    def test_predicts_percentile(self):
        p = PercentilePredictor(q=10, window=100)
        for v in range(1, 101):
            p.update(float(v))
        assert p.predict() == pytest.approx(np.percentile(range(1, 101), 10))

    def test_lower_q_predicts_lower(self, rng):
        x = rng.random(500)
        p10 = PercentilePredictor(q=10, window=500)
        p50 = PercentilePredictor(q=50, window=500)
        for v in x:
            p10.update(v)
            p50.update(v)
        assert p10.predict() < p50.predict()

    def test_series_matches_online(self, rng):
        x = rng.random(80)
        vectorized = PercentilePredictor(q=10, window=20).predict_series(x)
        online = PercentilePredictor(q=10, window=20)
        expected = np.full(80, np.nan)
        for i, v in enumerate(x):
            if online.ready:
                expected[i] = online.predict()
            online.update(v)
        assert np.array_equal(vectorized, expected, equal_nan=True)

    def test_conservative_guarantee_level(self, rng):
        # The prediction is exceeded ~90 % of the time on IID data.
        x = 50 + 5 * rng.standard_normal(5000)
        p = PercentilePredictor(q=10, window=1000)
        hits, total = 0, 0
        for i, v in enumerate(x):
            if p.ready:
                total += 1
                hits += v >= p.predict()
            p.update(v)
        assert hits / total == pytest.approx(0.9, abs=0.03)

    def test_series_rejects_non_finite_samples(self):
        x = np.arange(40, dtype=float)
        for bad in (np.nan, np.inf, -np.inf):
            x_bad = x.copy()
            x_bad[27] = bad
            p = PercentilePredictor(q=10, window=20)
            with pytest.raises(ConfigurationError, match="index 27"):
                p.predict_series(x_bad)
            # Rejected before any state changes.
            assert not p._buffer

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PercentilePredictor(q=150)
        with pytest.raises(ConfigurationError):
            PercentilePredictor(window=1)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: MovingAveragePredictor(window=10),
        lambda: SlidingMedianPredictor(window=10),
        lambda: PercentilePredictor(q=10, window=10),
    ],
    ids=["MA", "SMA", "P10"],
)
@pytest.mark.parametrize(
    "prefix_len, n", [(0, 6), (0, 57), (4, 3), (4, 57), (15, 57)],
    ids=["short", "long", "prefed-short", "prefed-long", "prefed-full"],
)
def test_series_leaves_update_state(factory, prefix_len, n, rng):
    """predict_series leaves exactly the state update() would have."""
    prefix = 50 + 5 * rng.standard_normal(prefix_len)
    x = 50 + 5 * rng.standard_normal(n)
    vectorized = factory()
    for v in prefix:
        vectorized.update(v)
    vectorized.predict_series(x)
    twin = factory()
    for v in np.concatenate([prefix, x]):
        twin.update(v)
    assert list(vectorized._buffer) == list(twin._buffer)
    if isinstance(twin, MovingAveragePredictor):
        assert vectorized._sum.hex() == twin._sum.hex()
    assert vectorized.predict() == twin.predict()


def test_default_lineup_is_ma_ewma_sma():
    names = [p.name for p in default_average_predictors()]
    assert names == ["MA(10)", "EWMA(0.25)", "SMA(10)"]
