"""Prediction-error metrics (the Figure-4 scoring machinery)."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.monitoring.errors import (
    error_exceedance_fraction,
    mean_relative_error,
    percentile_prediction_failure_rate,
    prediction_error_series,
)
from repro.monitoring.predictors import EWMAPredictor, MovingAveragePredictor


class TestRelativeError:
    def test_zero_for_constant_series(self):
        x = np.full(100, 42.0)
        assert mean_relative_error(MovingAveragePredictor(10), x) == 0.0

    def test_known_alternating_series(self):
        # Series alternates 10, 20; MA(2) always predicts 15 -> relative
        # error alternates 0.5 on 10s and 0.25 on 20s.
        x = np.array([10.0, 20.0] * 50)
        err = mean_relative_error(MovingAveragePredictor(2), x)
        assert err == pytest.approx((0.5 + 0.25) / 2, abs=0.01)

    def test_scales_with_noise(self, rng):
        quiet = 50 + 1 * rng.standard_normal(5000)
        loud = 50 + 10 * rng.standard_normal(5000)
        predictor = EWMAPredictor(alpha=0.25)
        assert mean_relative_error(
            EWMAPredictor(alpha=0.25), loud
        ) > mean_relative_error(predictor, quiet)

    def test_drops_zero_actuals(self):
        x = np.array([1.0] * 20 + [0.0] + [1.0] * 20)
        errs = prediction_error_series(MovingAveragePredictor(5), x)
        assert np.all(np.isfinite(errs))

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_relative_error(MovingAveragePredictor(10), np.ones(5))

    def test_exceedance_fraction(self, rng):
        x = 50 + 20 * rng.standard_normal(5000)
        frac = error_exceedance_fraction(EWMAPredictor(0.25), x, 0.2)
        assert 0.0 < frac < 1.0


class TestPercentileFailureRate:
    def test_iid_mean_mode_is_small(self, rng):
        # For IID Gaussian, P(mean of 5 < p10) = Phi(-1.2816 * sqrt(5)),
        # about 0.2 % — the percentile guarantee holds almost always.
        x = 50 + 5 * rng.standard_normal(20_000)
        fail = percentile_prediction_failure_rate(
            x, q=10, history=500, horizon=5, mode="mean"
        )
        assert fail < 0.02

    def test_iid_min_mode_floor(self, rng):
        # Strict per-sample mode cannot beat ~1-0.9^5 = 41 % on IID data —
        # this is why the guarantee is stated over the window aggregate.
        x = 50 + 5 * rng.standard_normal(20_000)
        fail = percentile_prediction_failure_rate(
            x, q=10, history=500, horizon=5, mode="min"
        )
        assert fail > 0.3

    def test_regime_drop_causes_failures(self, rng):
        # A sustained level shift below the historic p10 must register.
        x = np.concatenate(
            [50 + rng.standard_normal(2000), 30 + rng.standard_normal(500)]
        )
        fail = percentile_prediction_failure_rate(
            x, q=10, history=1000, horizon=5
        )
        assert fail > 0.1

    def test_stride_subsamples(self, rng):
        x = 50 + 5 * rng.standard_normal(5000)
        dense = percentile_prediction_failure_rate(x, history=500, stride=1)
        sparse = percentile_prediction_failure_rate(x, history=500, stride=10)
        assert abs(dense - sparse) < 0.05

    def test_too_short_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            percentile_prediction_failure_rate(rng.random(100), history=500)

    def test_invalid_mode_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            percentile_prediction_failure_rate(
                rng.random(2000), history=500, mode="max"
            )

    def test_lower_q_fails_less(self, rng):
        x = 50 + 5 * rng.standard_normal(20_000)
        f1 = percentile_prediction_failure_rate(x, q=1, history=500)
        f25 = percentile_prediction_failure_rate(x, q=25, history=500)
        assert f1 <= f25

    @pytest.mark.parametrize("index", [0, 300, 1200, 1999])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, rng, index, bad):
        # A NaN threshold or outcome compares False, so it used to count
        # as a success and bias the failure rate low; in the history or
        # in the horizon, it must be named instead.
        x = 50 + 5 * rng.standard_normal(2000)
        x[index] = bad
        with pytest.raises(ConfigurationError, match=f"index {index}\\b"):
            percentile_prediction_failure_rate(x, history=500, horizon=5)

    def test_memory_is_linear_in_series(self, rng):
        # Thresholds come from one rolling window, not from a dense
        # positions x history matrix (24k x 500 float64 = 94 MB).
        x = 50 + 5 * rng.standard_normal(24_000)
        tracemalloc.start()
        try:
            percentile_prediction_failure_rate(x, q=10, history=500, horizon=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
