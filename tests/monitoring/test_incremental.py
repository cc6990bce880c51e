"""Unit tests of the incremental sliding-window CDF and its wiring."""

from collections import deque

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF, ks_distance
from repro.monitoring.incremental import IncrementalWindowCDF


class TestIncrementalWindow:
    def test_window_semantics_match_deque(self):
        rng = np.random.default_rng(0)
        inc = IncrementalWindowCDF(window=7)
        mirror: deque[float] = deque(maxlen=7)
        for v in rng.uniform(0, 100, 100):
            inc.update(v)
            mirror.append(float(v))
            assert sorted(mirror) == list(inc.sorted_view())
            assert list(mirror) == inc.window_values()

    def test_duplicates_evict_correctly(self):
        inc = IncrementalWindowCDF(window=3)
        inc.extend([5.0, 5.0, 5.0, 5.0, 1.0])
        assert list(inc.sorted_view()) == [1.0, 5.0, 5.0]
        assert inc.window_values() == [5.0, 5.0, 1.0]

    def test_negative_zero_normalized(self):
        inc = IncrementalWindowCDF(window=2)
        inc.extend([-0.0, 1.0, 2.0])  # the -0.0 must evict cleanly
        assert list(inc.sorted_view()) == [1.0, 2.0]

    def test_rejects_non_finite(self):
        inc = IncrementalWindowCDF()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                inc.update(bad)

    def test_rejects_tiny_window(self):
        with pytest.raises(ConfigurationError):
            IncrementalWindowCDF(window=1)

    def test_empty_queries_rejected(self):
        inc = IncrementalWindowCDF()
        for call in (
            lambda: inc.evaluate(1.0),
            lambda: inc.quantile(0.5),
            lambda: inc.mean(),
            lambda: inc.partial_mean_below(1.0),
            lambda: inc.snapshot(),
        ):
            with pytest.raises(ConfigurationError):
                call()

    def test_quantile_range_checked(self):
        inc = IncrementalWindowCDF()
        inc.extend([1.0, 2.0])
        with pytest.raises(ConfigurationError):
            inc.quantile(1.5)
        with pytest.raises(ConfigurationError):
            inc.percentile(-1.0)

    def test_sorted_view_read_only(self):
        inc = IncrementalWindowCDF()
        inc.extend([2.0, 1.0])
        with pytest.raises(ValueError):
            inc.sorted_view()[0] = 99.0

    def test_snapshot_immutable_and_decoupled(self):
        inc = IncrementalWindowCDF(window=3)
        inc.extend([3.0, 1.0, 2.0])
        snap = inc.snapshot()
        with pytest.raises(ValueError):
            snap.samples[0] = 99.0
        inc.update(50.0)  # must not disturb the frozen snapshot
        assert list(snap.samples) == [1.0, 2.0, 3.0]

    def test_queries_match_batch_cdf_exactly(self):
        rng = np.random.default_rng(1)
        inc = IncrementalWindowCDF(window=50)
        values = rng.uniform(0, 100, 300)
        for v in values:
            inc.update(v)
        ref = EmpiricalCDF(values[-50:])
        for b in (-1.0, 0.0, 33.3, *values[-5:], 150.0):
            assert inc.evaluate(b) == ref.evaluate(b)
            assert inc.evaluate_strict(b) == ref.evaluate_strict(b)
            assert inc.partial_mean_below(b) == ref.partial_mean_below(b)
        for q in (0.0, 5.0, 37.7, 50.0, 95.0, 100.0):
            assert inc.percentile(q) == ref.percentile(q)
        assert inc.mean() == ref.mean()
        assert inc.std() == ref.std()
        assert inc.min() == ref.min()
        assert inc.max() == ref.max()

    def test_ks_distance_matches_module_function(self):
        rng = np.random.default_rng(2)
        a = IncrementalWindowCDF(window=40)
        a.extend(rng.uniform(0, 100, 40))
        other = EmpiricalCDF(rng.uniform(20, 120, 60))
        expected = ks_distance(a.snapshot(), other)
        assert a.ks_distance(other) == expected

    def test_vectorized_evaluate(self):
        inc = IncrementalWindowCDF()
        inc.extend([1.0, 2.0, 3.0, 4.0])
        out = inc.evaluate(np.array([0.0, 2.0, 5.0]))
        assert np.array_equal(out, [0.0, 0.5, 1.0])


class TestBackendWiring:
    """``SlidingWindowCDF`` over its incremental window."""

    def test_window_api(self):
        swc = SlidingWindowCDF(window=3)
        swc.extend([1.0, 2.0, 3.0, 4.0])
        assert len(swc) == 3
        assert swc.full
        assert list(swc.snapshot().samples) == [2.0, 3.0, 4.0]

    def test_agrees_with_resorted_window_on_random_stream(self):
        rng = np.random.default_rng(3)
        inc = SlidingWindowCDF(window=25)
        mirror: deque = deque(maxlen=25)
        for v in rng.uniform(0, 100, 120):
            inc.update(v)
            mirror.append(float(v))
            bat = EmpiricalCDF(mirror)
            b = float(rng.uniform(-10, 110))
            q = float(rng.uniform(0, 100))
            assert inc.evaluate(b) == bat.evaluate(b)
            assert inc.evaluate_strict(b) == bat.evaluate_strict(b)
            assert inc.partial_mean_below(b) == bat.partial_mean_below(b)
            assert inc.percentile(q) == bat.percentile(q)
            assert inc.mean() == bat.mean()
        assert np.array_equal(inc.snapshot().samples, bat.samples)

    def test_queries_after_snapshot_use_cache(self):
        swc = SlidingWindowCDF(window=5)
        swc.extend([1.0, 2.0, 3.0])
        snap = swc.snapshot()
        # With a live cached snapshot, queries must agree with it.
        assert swc.evaluate(2.0) == snap.evaluate(2.0)
        assert swc.percentile(50.0) == snap.percentile(50.0)

    def test_obs_counters_track_reuse_and_rebuild(self):
        from repro.obs.context import Observability

        obs = Observability()
        swc = SlidingWindowCDF(window=4, obs=obs)
        swc.extend([1.0, 2.0, 3.0])
        swc.snapshot()  # rebuild
        swc.snapshot()  # reuse
        swc.update(4.0)  # invalidates
        swc.snapshot()  # rebuild
        counters = obs.metrics
        assert counters.counter("cdf.updates").value == 4
        assert counters.counter("cdf.snapshot_rebuilds").value == 2
        assert counters.counter("cdf.snapshot_reuses").value == 1


class TestFromSorted:
    def test_skips_sort_and_matches_ctor(self):
        arr = np.array([1.0, 2.0, 3.0])
        a = EmpiricalCDF.from_sorted(arr)
        b = EmpiricalCDF(arr)
        assert np.array_equal(a.samples, b.samples)

    def test_validate_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF.from_sorted(np.array([2.0, 1.0]))

    def test_validate_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF.from_sorted(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF.from_sorted(np.array([]))

    def test_copy_true_leaves_caller_array_writable(self):
        arr = np.array([1.0, 2.0])
        EmpiricalCDF.from_sorted(arr, copy=True)
        arr[0] = 0.5  # caller's array unaffected by the freeze

    def test_result_read_only(self):
        cdf = EmpiricalCDF.from_sorted(np.array([1.0, 2.0]), copy=False)
        with pytest.raises(ValueError):
            cdf.samples[0] = 9.0
