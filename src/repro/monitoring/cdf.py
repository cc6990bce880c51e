"""Empirical CDFs of available bandwidth.

The paper's key data structure: ``F(b) = P{avail_bw in (0, b)}`` tracked
per path over a sliding history window.  The PGOS guarantees (Lemmas 1 and
2) are direct reads of this object: ``1 - F(b0)`` for the probabilistic
guarantee and the partial mean ``M[b0]`` for the violation bound.

Two construction paths exist:

* :class:`EmpiricalCDF` — the immutable batch form, sorting its input
  once; :meth:`EmpiricalCDF.from_sorted` skips the sort when the caller
  already holds a sorted array (the residual-shift in the mapping step,
  the incremental window's snapshot).
* :class:`SlidingWindowCDF` — the online form, a window kept by
  :class:`repro.monitoring.incremental.IncrementalWindowCDF`: sorted
  under O(log W) insert/evict instead of re-sorted on every snapshot.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.monitoring.incremental import IncrementalWindowCDF

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
        sortedness themselves (the incremental sliding window) or apply a
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

    def percentile(
        self, q: float | np.ndarray
    ) -> float | np.ndarray:
        """The ``q``-th percentile(s) of the sample distribution, ``q`` in [0, 100].

        Accepts an array of probabilities so batched callers (multicast
        rate planning, guarantee sweeps) pay one vectorized pass instead
        of one interpolation per level.
        """
        if np.isscalar(q):
            if not 0.0 <= q <= 100.0:
                raise ConfigurationError(f"q must be in [0, 100], got {q}")
            return float(np.percentile(self._sorted, q))
        q = np.asarray(q, dtype=float)
        if q.size and (q.min() < 0.0 or q.max() > 100.0):
            raise ConfigurationError(f"q must be in [0, 100], got {q}")
        return np.percentile(self._sorted, q)

    def quantile(self, p: float | np.ndarray) -> float | np.ndarray:
        """Inverse CDF at probability ``p`` in [0, 1] (scalar or array)."""
        if np.isscalar(p):
            return self.percentile(p * 100.0)
        return self.percentile(np.asarray(p, dtype=float) * 100.0)

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
    i.e. minutes of history).  ``snapshot()`` freezes the current window
    as an :class:`EmpiricalCDF` for the mapping step.  The window is
    kept sorted under O(log W) insert/evict, so a snapshot is a copy
    rather than a sort.

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
        self._inc = IncrementalWindowCDF(window)

    def bind_observability(self, obs) -> None:
        """Attach (or replace) the observability context."""
        from repro.obs.context import NULL_OBS

        self._obs = obs if obs is not None else NULL_OBS

    def __len__(self) -> int:
        return len(self._inc)

    @property
    def full(self) -> bool:
        """Whether the history window has filled up."""
        return len(self) == self.window

    @property
    def incremental(self) -> IncrementalWindowCDF:
        """The live sorted window.

        Restoring a snapshot replaces this object rather than resetting
        it, so its identity together with its ``updates`` count names
        one point in the window's history.
        """
        return self._inc

    def update(self, sample: float) -> None:
        """Append one bandwidth measurement (Mbps)."""
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("cdf.update"):
                self._update_inner(sample)
        else:
            self._update_inner(sample)

    def _update_inner(self, sample: float) -> None:
        self._inc.update(sample)
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
            self._inc.update(s)
            count += 1
        self._cached = None
        if count and self._obs.enabled:
            self._obs.metrics.counter("cdf.updates").inc(count)

    def snapshot(self) -> EmpiricalCDF:
        """Freeze the current window as an immutable CDF.

        The snapshot is cached and invalidated on update, so repeated
        guarantee evaluations within a scheduling window reuse one
        frozen CDF; even a rebuild is a copy of the maintained sorted
        buffer, never a sort.
        """
        if len(self) == 0:
            raise ConfigurationError("no samples observed yet")
        if self._cached is None:
            prof = self._obs.prof
            if prof.enabled:
                with prof.span("cdf.snapshot"):
                    self._cached = self._inc.snapshot()
            else:
                self._cached = self._inc.snapshot()
            if self._obs.enabled:
                self._obs.metrics.counter("cdf.snapshot_rebuilds").inc()
        elif self._obs.enabled:
            self._obs.metrics.counter("cdf.snapshot_reuses").inc()
        return self._cached

    def percentile(self, q: float) -> float:
        """Percentile of the current window."""
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("cdf.query"):
                return self._percentile_inner(q)
        return self._percentile_inner(q)

    def _percentile_inner(self, q: float) -> float:
        if self._cached is None:
            # Interpolate on the maintained sorted buffer (bit-identical
            # to np.percentile, no snapshot copy, no partition pass).
            return self._inc.percentile(q)
        return self.snapshot().percentile(q)

    def evaluate(self, b: float) -> float:
        """``F(b)`` over the current window."""
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("cdf.query"):
                return self._evaluate_inner(b)
        return self._evaluate_inner(b)

    def _evaluate_inner(self, b: float) -> float:
        if self._cached is None:
            # O(log W) direct read; building/caching a snapshot is left
            # to callers that will query repeatedly.
            return self._inc.evaluate(b)
        return self.snapshot().evaluate(b)

    def evaluate_strict(self, b: float) -> float:
        """``F(b-)`` over the current window."""
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("cdf.query"):
                return self._evaluate_strict_inner(b)
        return self._evaluate_strict_inner(b)

    def _evaluate_strict_inner(self, b: float) -> float:
        if self._cached is None:
            return self._inc.evaluate_strict(b)
        return self.snapshot().evaluate_strict(b)

    def partial_mean_below(self, b0: float) -> float:
        """``M[b0]`` over the current window."""
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("cdf.query"):
                return self._partial_mean_below_inner(b0)
        return self._partial_mean_below_inner(b0)

    def _partial_mean_below_inner(self, b0: float) -> float:
        if self._cached is None:
            return self._inc.partial_mean_below(b0)
        return self.snapshot().partial_mean_below(b0)

    def mean(self) -> float:
        """Mean of the current window."""
        if self._cached is None:
            return self._inc.mean()
        return self.snapshot().mean()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def window_values(self) -> list[float]:
        """The window's samples in arrival order (oldest first)."""
        return self._inc.window_values()

    def state_dict(self) -> dict:
        """JSON-serializable snapshot.

        Arrival order fully determines the state: replaying it into a
        fresh window reproduces the sorted buffer bit-for-bit.
        """
        return {"window": self.window, "values": self.window_values()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot, replacing the window's contents.

        The cached frozen CDF is dropped — rebuilding it is
        deterministic.
        """
        if int(state["window"]) != self.window:
            raise ConfigurationError(
                f"window mismatch: have {self.window}, checkpoint has "
                f"{state['window']}"
            )
        self._inc = IncrementalWindowCDF(self.window)
        self._inc.extend(float(v) for v in state["values"])
        self._cached = None


def ks_distance(
    a: Union[EmpiricalCDF, "SlidingWindowCDF"],
    b: Union[EmpiricalCDF, "SlidingWindowCDF"],
) -> float:
    """Kolmogorov–Smirnov distance ``sup_x |F_a(x) - F_b(x)|``.

    Used as the remap trigger: the paper rebuilds scheduling vectors "when
    the CDF of some path changes dramatically"; we quantify *dramatically*
    as a KS distance above a threshold.

    The supremum over the union of both sample sets equals the supremum
    over their concatenation (duplicate grid points cannot change a max),
    so the grid is never sorted or deduplicated — the seed's ``union1d``
    sort was the last O(n log n) step in the remap-trigger path.
    """
    if isinstance(a, SlidingWindowCDF):
        a = a.snapshot()
    if isinstance(b, SlidingWindowCDF):
        b = b.snapshot()
    grid = np.concatenate([a.samples, b.samples])
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))
