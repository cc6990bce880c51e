"""Unit tests of the sliding-window CDF's incrementally sorted window."""

from collections import deque

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF


class TestIncrementalWindow:
    """The sorted buffer and arrival FIFO ``SlidingWindowCDF`` keeps."""

    def test_window_semantics_match_deque(self):
        rng = np.random.default_rng(0)
        window = SlidingWindowCDF(window=7)
        mirror: deque[float] = deque(maxlen=7)
        for v in rng.uniform(0, 100, 100):
            window.update(v)
            mirror.append(float(v))
            assert sorted(mirror) == list(window.snapshot().samples)
            assert list(mirror) == window.window_values()

    def test_duplicates_evict_correctly(self):
        window = SlidingWindowCDF(window=3)
        window.extend([5.0, 5.0, 5.0, 5.0, 1.0])
        assert list(window.snapshot().samples) == [1.0, 5.0, 5.0]
        assert window.window_values() == [5.0, 5.0, 1.0]

    def test_negative_zero_normalized(self):
        window = SlidingWindowCDF(window=2)
        window.extend([-0.0, 1.0, 2.0])  # the -0.0 must evict cleanly
        assert list(window.snapshot().samples) == [1.0, 2.0]

    def test_rejects_non_finite(self):
        window = SlidingWindowCDF()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                window.update(bad)
        assert len(window) == 0

    def test_rejects_tiny_window(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowCDF(window=1)

    def test_empty_queries_rejected(self):
        window = SlidingWindowCDF()
        for call in (
            lambda: window.percentile(50.0),
            lambda: window.snapshot(),
        ):
            with pytest.raises(ConfigurationError):
                call()

    def test_quantile_range_checked(self):
        window = SlidingWindowCDF()
        window.extend([1.0, 2.0])
        with pytest.raises(ConfigurationError):
            window.percentile(150.0)
        with pytest.raises(ConfigurationError):
            window.percentile(-1.0)

    def test_snapshot_immutable_and_decoupled(self):
        window = SlidingWindowCDF(window=3)
        window.extend([3.0, 1.0, 2.0])
        snap = window.snapshot()
        with pytest.raises(ValueError):
            snap.samples[0] = 99.0
        window.update(50.0)  # must not disturb the frozen snapshot
        assert list(snap.samples) == [1.0, 2.0, 3.0]

    def test_queries_match_batch_cdf_exactly(self):
        rng = np.random.default_rng(1)
        window = SlidingWindowCDF(window=50)
        values = rng.uniform(0, 100, 300)
        for v in values:
            window.update(v)
        ref = EmpiricalCDF(values[-50:])
        assert np.array_equal(window.snapshot().samples, ref.samples)
        for q in (0.0, 5.0, 37.7, 50.0, 95.0, 100.0):
            assert window.percentile(q) == ref.percentile(q)


class TestBackendWiring:
    """``SlidingWindowCDF``'s snapshot cache and counters."""

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
            q = float(rng.uniform(0, 100))
            assert inc.percentile(q) == bat.percentile(q)
            assert np.array_equal(inc.snapshot().samples, bat.samples)

    def test_queries_after_snapshot_use_cache(self):
        swc = SlidingWindowCDF(window=5)
        swc.extend([1.0, 2.0, 3.0])
        snap = swc.snapshot()
        # The buffer read agrees with the cached snapshot and leaves it
        # in place.
        assert swc.percentile(50.0) == snap.percentile(50.0)
        assert swc.snapshot() is snap

    def test_obs_counters_track_reuse_and_rebuild(self):
        from repro.obs.context import Observability

        obs = Observability()
        swc = SlidingWindowCDF(window=4, obs=obs)
        swc.extend([1.0, 2.0, 3.0])
        swc.snapshot()  # rebuild
        swc.snapshot()  # reuse
        swc.update(4.0)  # invalidates
        swc.snapshot()  # rebuild
        swc.extend([])  # invalidates, counts no update
        swc.snapshot()  # rebuild
        counters = obs.metrics
        assert counters.counter("cdf.updates").value == 4
        assert counters.counter("cdf.snapshot_rebuilds").value == 3
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
