"""Empirical CDFs: evaluation, percentiles, partial means, KS distance."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF, ks_distance


class TestEmpiricalCDF:
    def test_step_values(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(1.0) == 0.25
        assert cdf.evaluate(2.5) == 0.5
        assert cdf.evaluate(4.0) == 1.0
        assert cdf.evaluate(10.0) == 1.0

    def test_strict_evaluation(self):
        cdf = EmpiricalCDF([1.0, 2.0, 2.0, 3.0])
        assert cdf.evaluate_strict(2.0) == 0.25  # only the 1.0 is < 2
        assert cdf.evaluate(2.0) == 0.75

    def test_vectorized_evaluation(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        out = cdf.evaluate(np.array([0.0, 2.0, 5.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_callable(self):
        cdf = EmpiricalCDF([1.0, 2.0])
        assert cdf(1.5) == 0.5

    def test_percentile_quantile(self):
        samples = np.arange(1, 101, dtype=float)
        cdf = EmpiricalCDF(samples)
        assert cdf.percentile(50) == pytest.approx(50.5)
        assert cdf.percentile(10) == pytest.approx(10.9)

    def test_percentile_bounds(self):
        cdf = EmpiricalCDF([1.0, 2.0])
        with pytest.raises(ConfigurationError):
            cdf.percentile(101)

    def test_moments(self, rng):
        x = 50 + 5 * rng.standard_normal(20_000)
        cdf = EmpiricalCDF(x)
        assert cdf.mean() == pytest.approx(x.mean())
        assert cdf.std() == pytest.approx(x.std())
        assert cdf.min() == x.min()
        assert cdf.max() == x.max()

    def test_partial_mean_below(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        # E[b * 1{b <= 2}] = (1 + 2) / 4
        assert cdf.partial_mean_below(2.0) == pytest.approx(0.75)
        assert cdf.partial_mean_below(0.5) == 0.0
        assert cdf.partial_mean_below(10.0) == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF([])

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF([1.0, float("nan")])

    def test_samples_read_only(self):
        cdf = EmpiricalCDF([2.0, 1.0])
        with pytest.raises(ValueError):
            cdf.samples[0] = 99.0


class TestSlidingWindowCDF:
    def test_window_evicts_oldest(self):
        window = SlidingWindowCDF(window=3)
        window.extend([1.0, 2.0, 3.0, 4.0])
        assert list(window.snapshot().samples) == [2.0, 3.0, 4.0]

    def test_full_flag(self):
        window = SlidingWindowCDF(window=2)
        assert not window.full
        window.extend([1.0, 2.0])
        assert window.full

    def test_snapshot_cached_until_update(self):
        window = SlidingWindowCDF(window=5)
        window.update(1.0)
        snap1 = window.snapshot()
        assert window.snapshot() is snap1
        window.update(2.0)
        assert window.snapshot() is not snap1

    def test_empty_snapshot_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowCDF().snapshot()

    def test_percentile_delegates(self):
        window = SlidingWindowCDF(window=10)
        window.extend(range(1, 11))
        assert window.percentile(50) == pytest.approx(5.5)
        assert window.snapshot().evaluate(5) == 0.5

    def test_non_finite_rejected(self):
        window = SlidingWindowCDF()
        with pytest.raises(ConfigurationError):
            window.update(float("inf"))

    def test_small_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowCDF(window=1)


class TestKSDistance:
    def test_identical_is_zero(self, rng):
        x = rng.random(100)
        assert ks_distance(EmpiricalCDF(x), EmpiricalCDF(x)) == 0.0

    def test_disjoint_is_one(self):
        a = EmpiricalCDF([1.0, 2.0])
        b = EmpiricalCDF([10.0, 20.0])
        assert ks_distance(a, b) == 1.0

    def test_symmetric(self, rng):
        a = EmpiricalCDF(rng.random(200))
        b = EmpiricalCDF(rng.random(200) + 0.2)
        assert ks_distance(a, b) == pytest.approx(ks_distance(b, a))

    def test_shift_detected(self, rng):
        x = rng.standard_normal(2000)
        a = EmpiricalCDF(x)
        b = EmpiricalCDF(x + 1.0)
        # KS of N(0,1) vs N(1,1) is about 0.38.
        assert ks_distance(a, b) == pytest.approx(0.38, abs=0.05)
