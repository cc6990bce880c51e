"""Empirical CDFs of available bandwidth.

The paper's key data structure: ``F(b) = P{avail_bw in (0, b)}`` tracked
per path over a sliding history window.  The PGOS guarantees (Lemmas 1 and
2) are direct reads of this object: ``1 - F(b0)`` for the probabilistic
guarantee and the partial mean ``M[b0]`` for the violation bound.

* :class:`SlidingWindowCDF` — the live window: the last ``window``
  samples, kept sorted under O(log W) insert/evict (one
  ``searchsorted`` and one slice move each), with a FIFO of arrival
  order so the evicted sample is found by value.
* :class:`EmpiricalCDF` — the immutable form that answers the queries;
  the window itself reads only ``percentile`` off its buffer.  A
  window's :meth:`~SlidingWindowCDF.snapshot` copies the sorted buffer
  into one through :meth:`EmpiricalCDF.from_sorted`, never re-sorting,
  so each query runs the same numpy operation on the same array a
  batch-built CDF would: the results are bit-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.series import pack_series, unpack_series


def lerp_order_statistics(
    n: int, p: float, at: Callable[[int], float]
) -> float:
    """The ``p``-quantile of ``n`` ascending values read through ``at``.

    ``np.percentile``'s default (linear) method, bit for bit, on values
    the caller need not hold as an array: ``at(i)`` is the ``i``-th
    order statistic, read at most twice.
    """
    pos = p * (n - 1)
    lo = int(pos)
    if lo + 1 >= n:
        return float(at(n - 1))
    frac = pos - lo
    lo_v = at(lo)
    hi_v = at(lo + 1)
    diff = hi_v - lo_v
    # numpy's _lerp switches to the upper-anchored form at t >= 0.5
    # for precision; mirror it or ~1% of quantiles differ in the
    # last ulp from np.percentile.
    if frac >= 0.5:
        return float(hi_v - diff * (1.0 - frac))
    return float(lo_v + diff * frac)


class EmpiricalCDF:
    """Immutable empirical CDF built from a sample array.

    Evaluation uses right-continuous step convention:
    ``F(b) = (# samples <= b) / n``.  The underlying sorted array is
    marked non-writeable at construction, so in-place mutation through
    any reference raises instead of silently corrupting guarantees.
    """

    #: :meth:`sample_list`'s conversion, once it has been asked for.
    _list: list[float] | None = None

    def __init__(self, samples: Iterable[float]):
        arr = np.sort(np.asarray(list(samples), dtype=float))
        if arr.size == 0:
            raise ConfigurationError("EmpiricalCDF needs at least one sample")
        if np.any(~np.isfinite(arr)):
            raise ConfigurationError("EmpiricalCDF samples must be finite")
        arr.flags.writeable = False
        self._sorted = arr

    @classmethod
    def from_sorted(
        cls,
        sorted_samples: np.ndarray,
        *,
        copy: bool = True,
        validate: bool = True,
    ) -> "EmpiricalCDF":
        """Build from an already-sorted array, skipping the O(n log n) sort.

        This is the fast construction path for callers that maintain
        sortedness themselves (the sliding window's snapshot) or apply a
        monotone transform to an existing CDF's samples (the residual
        shift in the mapping step).

        Parameters
        ----------
        sorted_samples:
            Ascending float array.
        copy:
            Copy the input (default).  Pass ``False`` only when handing
            over ownership of a freshly allocated array.
        validate:
            Check finiteness and ascending order (O(n), vectorized).
            Internal callers whose invariants already guarantee both may
            skip it.
        """
        arr = np.asarray(sorted_samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError(
                "from_sorted needs a non-empty 1-D sample array"
            )
        if validate:
            if np.any(~np.isfinite(arr)):
                raise ConfigurationError("EmpiricalCDF samples must be finite")
            if arr.size > 1 and np.any(arr[1:] < arr[:-1]):
                raise ConfigurationError(
                    "from_sorted requires ascending samples"
                )
        if copy:
            arr = arr.copy()
        arr.flags.writeable = False
        obj = cls.__new__(cls)
        obj._sorted = arr
        return obj

    @property
    def n(self) -> int:
        """Number of samples."""
        return self._sorted.size

    @property
    def samples(self) -> np.ndarray:
        """Sorted sample array (read-only)."""
        return self._sorted

    def sample_list(self) -> list[float]:
        """The sorted samples as Python floats, converted on first use.

        For scalar queries that read a handful of samples (the residual
        guarantee's bisect, an interpolated order statistic): indexing a
        list costs a fraction of indexing the array.  Treat as
        read-only, like :attr:`samples`.
        """
        if self._list is None:
            self._list = self._sorted.tolist()
        return self._list

    def evaluate(self, b: float | np.ndarray) -> float | np.ndarray:
        """``F(b)``: fraction of samples ``<= b``."""
        result = np.searchsorted(self._sorted, b, side="right") / self.n
        if np.isscalar(b):
            return float(result)
        return result

    __call__ = evaluate

    def evaluate_strict(self, b: float | np.ndarray) -> float | np.ndarray:
        """``F(b-)``: fraction of samples strictly below ``b``.

        This is the failure probability of Lemma 1 — a sample exactly equal
        to the required bandwidth still satisfies the requirement.
        """
        result = np.searchsorted(self._sorted, b, side="left") / self.n
        if np.isscalar(b):
            return float(result)
        return result

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sample distribution, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"q must be in [0, 100], got {q}")
        return float(np.percentile(self._sorted, q))

    def mean(self) -> float:
        """Sample mean."""
        return float(self._sorted.mean())

    def std(self) -> float:
        """Sample standard deviation."""
        return float(self._sorted.std())

    def partial_mean_below(self, b0: float) -> float:
        """``M[b0]``: mean of the samples ``<= b0``, weighted by ``F(b0)``.

        Specifically returns ``E[b * 1{b <= b0}]`` — the unconditional
        partial expectation — which is the quantity Lemma 2's bound uses
        (``F(b0) * E[b | b <= b0]``).  Returns 0 when no sample is below
        ``b0``.
        """
        idx = int(np.searchsorted(self._sorted, b0, side="right"))
        if idx == 0:
            return 0.0
        return float(self._sorted[:idx].sum()) / self.n

    def partial_means_below(self, b0: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`partial_mean_below` over many thresholds.

        One ``searchsorted`` locates every threshold; each *distinct*
        prefix is then reduced with the same ``ndarray.sum`` the scalar
        path uses, so every element is bit-identical to the scalar call —
        the property the batched mapping step relies on for byte-stable
        schedules.
        """
        b0 = np.asarray(b0, dtype=float)
        idx = np.searchsorted(self._sorted, b0, side="right")
        out = np.zeros(b0.shape, dtype=float)
        flat_idx = idx.ravel()
        flat_out = out.ravel()
        for i in np.unique(flat_idx):
            if i == 0:
                continue
            flat_out[flat_idx == i] = float(self._sorted[:i].sum()) / self.n
        return out

    def min(self) -> float:
        return float(self._sorted[0])

    def max(self) -> float:
        return float(self._sorted[-1])


class SlidingWindowCDF:
    """Bounded-history CDF updated online, one bandwidth sample at a time.

    This is the monitoring module's live view of a path: the last
    ``window`` samples (the paper uses 500–1000 samples of 0.1–1 s each,
    i.e. minutes of history), held both in arrival order (a FIFO, for
    eviction) and in sorted order (a preallocated buffer).
    ``snapshot()`` freezes the window as an :class:`EmpiricalCDF`, which
    answers the queries; ``percentile`` alone reads the buffer in place.

    Parameters
    ----------
    window:
        History length in samples.
    obs:
        Optional observability context; when enabled, snapshot
        cache reuse vs rebuild is counted (``cdf.snapshot_reuses`` /
        ``cdf.snapshot_rebuilds``) alongside ``cdf.updates``.
    """

    def __init__(self, window: int = 500, obs=None):
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        from repro.obs.context import NULL_OBS

        self.window = window
        self._obs = obs if obs is not None else NULL_OBS
        self._cached: EmpiricalCDF | None = None
        self._fifo: deque[float] = deque()
        self._arr = np.empty(window, dtype=float)
        self._size = 0
        #: Samples inserted since construction, a restore counting as
        #: ``window`` of them (see :meth:`load_state_dict`).  The clock
        #: a monitor's quiet horizon runs on; never checkpointed.
        self.updates = 0

    def bind_observability(self, obs) -> None:
        """Attach (or replace) the observability context."""
        from repro.obs.context import NULL_OBS

        self._obs = obs if obs is not None else NULL_OBS

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        """Whether the history window has filled up."""
        return self._size == self.window

    def _insert(self, sample: float) -> None:
        """Insert one sample, evicting the oldest when the window is full."""
        if not np.isfinite(sample):
            raise ConfigurationError(f"sample must be finite, got {sample}")
        v = float(sample)
        if v == 0.0:
            v = 0.0  # normalize -0.0 so eviction-by-value is unambiguous
        arr = self._arr
        size = self._size
        if size == self.window:
            old = self._fifo.popleft()
            idx = int(np.searchsorted(arr[:size], old, side="left"))
            arr[idx : size - 1] = arr[idx + 1 : size]
            size -= 1
        idx = int(np.searchsorted(arr[:size], v, side="right"))
        arr[idx + 1 : size + 1] = arr[idx:size]
        arr[idx] = v
        self._size = size + 1
        self._fifo.append(v)
        self.updates += 1

    def update(self, sample: float) -> None:
        """Append one bandwidth measurement (Mbps)."""
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("cdf.update"):
                self._update_inner(sample)
        else:
            self._update_inner(sample)

    def _update_inner(self, sample: float) -> None:
        self._insert(sample)
        self._cached = None
        if self._obs.enabled:
            self._obs.metrics.counter("cdf.updates").inc()

    def extend(self, samples: Iterable[float]) -> None:
        """Append many measurements."""
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("cdf.extend"):
                self._extend_inner(samples)
        else:
            self._extend_inner(samples)

    def _extend_inner(self, samples: Iterable[float]) -> None:
        count = 0
        for s in samples:
            self._insert(s)
            count += 1
        self._cached = None
        if count and self._obs.enabled:
            self._obs.metrics.counter("cdf.updates").inc(count)

    def snapshot(self) -> EmpiricalCDF:
        """Freeze the current window as an immutable CDF.

        The snapshot is cached until the next ``update``, ``extend``
        (even an empty one) or ``load_state_dict``, so repeated
        guarantee evaluations within a scheduling window reuse one
        frozen CDF; even a rebuild is a copy of the sorted buffer,
        never a sort.
        """
        if self._size == 0:
            raise ConfigurationError("no samples observed yet")
        if self._cached is None:
            prof = self._obs.prof
            if prof.enabled:
                with prof.span("cdf.snapshot"):
                    self._cached = self._freeze()
            else:
                self._cached = self._freeze()
            if self._obs.enabled:
                self._obs.metrics.counter("cdf.snapshot_rebuilds").inc()
        elif self._obs.enabled:
            self._obs.metrics.counter("cdf.snapshot_reuses").inc()
        return self._cached

    def _freeze(self) -> EmpiricalCDF:
        return EmpiricalCDF.from_sorted(
            self._arr[: self._size], copy=True, validate=False
        )

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the current window, ``q`` in [0, 100].

        Interpolated on the sorted buffer with no snapshot copy; bit for
        bit ``snapshot().percentile(q)``.
        """
        if self._size == 0:
            raise ConfigurationError("no samples observed yet")
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"q must be in [0, 100], got {q}")
        return lerp_order_statistics(
            self._size, q / 100.0, self._arr.__getitem__
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def window_values(self) -> list[float]:
        """The window's samples in arrival order (oldest first)."""
        return list(self._fifo)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot: the window in arrival order, as
        one packed float64 string (:func:`repro.series.pack_series`).

        Arrival order is the complete state: replaying it into an empty
        window performs at most ``window`` inserts and no evictions,
        reproducing the sorted buffer bit for bit (same values, same
        insertion ties).
        """
        return {"window": self.window, "values": pack_series(self._fifo)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Every sample is replaced and the cached snapshot dropped.  The
        restore counts as ``window`` updates whatever it holds: it may
        replace the whole window, and a quiet horizon keyed on
        :attr:`updates` is always shorter than ``window``, so none
        outlives a restore.
        """
        if int(state["window"]) != self.window:
            raise CheckpointError(
                f"window mismatch: have {self.window}, checkpoint has "
                f"{state['window']}"
            )
        updates = self.updates
        self._fifo.clear()
        self._size = 0
        for v in unpack_series(state["values"]).tolist():
            self._insert(v)
        self.updates = updates + self.window
        self._cached = None


def ks_distance(a: EmpiricalCDF, b: EmpiricalCDF) -> float:
    """Kolmogorov–Smirnov distance ``sup_x |F_a(x) - F_b(x)|``.

    Used as the remap trigger: the paper rebuilds scheduling vectors "when
    the CDF of some path changes dramatically"; we quantify *dramatically*
    as a KS distance above a threshold.

    The supremum over the union of both sample sets equals the supremum
    over their concatenation (duplicate grid points cannot change a max),
    so the grid is never sorted or deduplicated — the seed's ``union1d``
    sort was the last O(n log n) step in the remap-trigger path.
    """
    grid = np.concatenate([a.samples, b.samples])
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))
