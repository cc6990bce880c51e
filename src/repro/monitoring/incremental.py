"""Incremental sliding-window CDF: the monitoring hot path without re-sorts.

The seed implementation of :class:`repro.monitoring.cdf.SlidingWindowCDF`
re-sorted the whole window (O(W log W) plus deque→list→ndarray
conversion) on every update→query cycle — and that cycle drives every
PGOS guarantee read, every KS remap-trigger check, and every
``residual_cdf`` evaluation in the mapping step.  This module maintains
the window *sorted at all times*:

* **insert/evict** — one ``searchsorted`` (O(log W)) locates the slot,
  one C-level slice move shifts the tail; arrival order is tracked in a
  FIFO so the evicted sample is found by value in O(log W) too;
* **queries** — ``evaluate``/``evaluate_strict`` are a single
  ``searchsorted``; ``quantile``/``percentile`` index the sorted buffer
  directly; ``mean``/``std``/``partial_mean_below`` are C-level prefix
  reductions over the already-sorted buffer.

Equivalence is a design invariant, not an aspiration: every query runs
the *same numpy operation on the same sorted array* the batch
:class:`~repro.monitoring.cdf.EmpiricalCDF` would build, so results are
bit-identical (``quantile`` re-implements numpy's linear interpolation
and agrees to the last ulp; the differential property suite in
``tests/property/test_cdf_incremental.py`` pins all of this down).  A
Fenwick-tree variant with incrementally maintained prefix sums was
considered and rejected: sequential partial sums differ from numpy's
pairwise ``ndarray.sum`` in the last ulp, which would break the
byte-identity guarantee the golden regression suite enforces.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Union

import numpy as np

from repro.errors import ConfigurationError


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


class IncrementalWindowCDF:
    """Sorted-window order statistics under O(log W) + memmove updates.

    Maintains the last ``window`` samples both in arrival order (a FIFO,
    for eviction) and in sorted order (a preallocated ndarray, for
    queries).  All query methods mirror
    :class:`repro.monitoring.cdf.EmpiricalCDF` exactly.
    """

    __slots__ = ("window", "_fifo", "_arr", "_size", "updates", "evictions")

    def __init__(self, window: int = 500):
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        self.window = window
        self._fifo: deque[float] = deque()
        self._arr = np.empty(window, dtype=float)
        self._size = 0
        #: Lifetime operation counts.  Diagnostic only — excluded from
        #: checkpoints so a resumed run's results stay byte-identical
        #: while its op counters restart from the resume point.
        self.updates = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # window maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        """Whether the history window has filled up."""
        return self._size == self.window

    def update(self, sample: float) -> None:
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
            self.evictions += 1
        idx = int(np.searchsorted(arr[:size], v, side="right"))
        arr[idx + 1 : size + 1] = arr[idx:size]
        arr[idx] = v
        self._size = size + 1
        self._fifo.append(v)
        self.updates += 1

    def extend(self, samples: Iterable[float]) -> None:
        """Insert many samples in order."""
        for s in samples:
            self.update(s)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def sorted_view(self) -> np.ndarray:
        """Read-only view of the current sorted window."""
        view = self._arr[: self._size].view()
        view.flags.writeable = False
        return view

    def window_values(self) -> list[float]:
        """The window's samples in arrival order (oldest first)."""
        return list(self._fifo)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot: the window in arrival order.

        Arrival order is the complete state — replaying it into a fresh
        instance performs at most ``window`` inserts and no evictions,
        reproducing the sorted buffer bit-identically (same values, same
        insertion ties).
        """
        return {"window": self.window, "values": self.window_values()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (replacing all samples)."""
        from repro.errors import CheckpointError

        if int(state["window"]) != self.window:
            raise CheckpointError(
                f"window mismatch: have {self.window}, checkpoint has "
                f"{state['window']}"
            )
        self._fifo.clear()
        self._size = 0
        self.extend(float(v) for v in state["values"])

    def snapshot(self):
        """Freeze the current window as an immutable ``EmpiricalCDF``.

        The sorted buffer is copied (the incremental structure keeps
        mutating) but never re-sorted — construction is O(W) with a
        memcpy constant.
        """
        from repro.monitoring.cdf import EmpiricalCDF

        if self._size == 0:
            raise ConfigurationError("no samples observed yet")
        return EmpiricalCDF.from_sorted(
            self._arr[: self._size], copy=True, validate=False
        )

    # ------------------------------------------------------------------
    # queries (mirroring EmpiricalCDF bit-for-bit)
    # ------------------------------------------------------------------
    def _require_samples(self) -> int:
        if self._size == 0:
            raise ConfigurationError("no samples observed yet")
        return self._size

    @property
    def n(self) -> int:
        """Number of samples currently in the window."""
        return self._size

    def evaluate(self, b: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """``F(b)``: fraction of samples ``<= b``."""
        n = self._require_samples()
        result = np.searchsorted(self._arr[:n], b, side="right") / n
        if np.isscalar(b):
            return float(result)
        return result

    __call__ = evaluate

    def evaluate_strict(
        self, b: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """``F(b-)``: fraction of samples strictly below ``b``."""
        n = self._require_samples()
        result = np.searchsorted(self._arr[:n], b, side="left") / n
        if np.isscalar(b):
            return float(result)
        return result

    def quantile(self, p: float) -> float:
        """Inverse CDF at probability ``p`` in [0, 1].

        Linear interpolation between order statistics, matching
        ``np.percentile``'s default method on the same sorted array.
        """
        n = self._require_samples()
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        return lerp_order_statistics(n, p, self._arr.__getitem__)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"q must be in [0, 100], got {q}")
        return self.quantile(q / 100.0)

    def mean(self) -> float:
        """Sample mean (identical reduction to ``EmpiricalCDF.mean``)."""
        n = self._require_samples()
        return float(self._arr[:n].mean())

    def std(self) -> float:
        """Sample standard deviation."""
        n = self._require_samples()
        return float(self._arr[:n].std())

    def min(self) -> float:
        self._require_samples()
        return float(self._arr[0])

    def max(self) -> float:
        n = self._require_samples()
        return float(self._arr[n - 1])

    def partial_mean_below(self, b0: float) -> float:
        """``M[b0]``: unconditional partial expectation ``E[b * 1{b <= b0}]``."""
        n = self._require_samples()
        idx = int(np.searchsorted(self._arr[:n], b0, side="right"))
        if idx == 0:
            return 0.0
        return float(self._arr[:idx].sum()) / n

    def ks_distance(self, other) -> float:
        """KS distance to another window/CDF without sorting a grid.

        ``other`` may be another :class:`IncrementalWindowCDF` or an
        ``EmpiricalCDF``.  The supremum of ``|F_a - F_b|`` over the union
        of sample points equals the supremum over the *concatenation*
        (duplicates cannot change a max), so no sort or dedup is needed.
        """
        n = self._require_samples()
        mine = self._arr[:n]
        theirs = other.sorted_view() if hasattr(other, "sorted_view") else (
            other.samples
        )
        grid = np.concatenate([mine, theirs])
        fa = np.searchsorted(mine, grid, side="right") / n
        fb = np.searchsorted(theirs, grid, side="right") / theirs.size
        return float(np.max(np.abs(fa - fb)))
