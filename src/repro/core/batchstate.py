"""Struct-of-arrays state for the vectorized delivery engine.

:class:`BatchState` holds every active stream's hot-loop state as
columnar numpy arrays — backlog bytes, the demand and its precomputed
arrival/limit constants, the open column, and the full per-interval
delivered-throughput history — so one delivery step touches a handful
of array operations instead of O(N) Python objects.  Only what a step
or a report reads is kept: no per-step telemetry counter.

Design constraints (they are what make the engine provable against the
scalar reference loop, ``tests/oracles``):

* **Stable indirection.**  A stream name maps to one *row*; rows are
  recycled through a LIFO free list when streams close, and growing
  capacity never moves live rows.  Trace join keys and checkpoint round
  trips therefore survive unchanged: the row number is an internal
  detail no output depends on.
* **Scalar-faithful ordering.**  ``names()`` iterates streams in the
  exact insertion order the scalar reference's ``_backlog_bytes`` dict
  has (insert on open, delete on close, reopened streams move to
  the end).  Checkpoint payloads serialize dicts *without* sorting —
  iteration order is part of the simulation's state — so this ordering
  is load-bearing, not cosmetic.
* **Precomputed constants.**  Per-stream constants that the scalar loop
  recomputes every interval (``bytes_in_interval(demand, dt)`` and the
  buffer cap) are evaluated once at open time with the *same expression
  order*, so every per-step comparison sees bit-identical floats.

The history matrix is the one store of open streams' delivered
history, read in place.  It is allocated at full column width (one
column per post-warmup interval of the realization) and every write
goes through :meth:`BatchState.write`, which also keeps ``written``,
the high-water mark of columns ever written: a delivery step writes
one column for the open rows, and unwritten columns are the zeros an
idle interval would have recorded anyway.

* **Reads are views.**  :meth:`BatchState.history_array` returns a
  read-only view of ``history[row, start:cur_col]``, never a copy.
* **A view outlives its stream's close.**  A close forgets the name,
  but the freed row's next occupant opens at a column >= the close
  column (columns only move forward) and only ever writes at or after
  its own open column, so a view taken before the close keeps its
  values.
* **Growth copies only what was written.**  The matrix's rows catch up
  with the row capacity at the next write or read, which copies
  ``history[:, :written]`` into a fresh zero matrix; the untouched tail
  keeps its zero pages unmapped.  Opening a large population before the
  first step therefore allocates one matrix, not one per doubling (a
  freed matrix of a few MB raises glibc's mmap threshold, and the heap
  then keeps later frees resident).  A view taken before a grow or a
  reset keeps reading the old matrix, whose values no later write
  changes.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.core.spec import StreamSpec
from repro.errors import ConfigurationError
from repro.units import bytes_in_interval

__all__ = ["BatchState"]

#: Initial row capacity; grows by doubling.
_INITIAL_CAPACITY = 64

#: The series of a stream that is not open.
_EMPTY = np.zeros(0)
_EMPTY.flags.writeable = False


class BatchState:
    """Columnar per-stream state with free-list row recycling.

    Parameters
    ----------
    n_columns:
        Width of the delivered-history matrix: one column per delivery
        interval the realization can still run (``n_intervals -
        start_k`` for a service).
    dt:
        Delivery interval length in seconds (fixes the arrival-bytes
        column).
    buffer_seconds:
        Sender-buffer bound (fixes the backlog-limit column).
    """

    def __init__(
        self,
        n_columns: int,
        dt: float,
        buffer_seconds: float,
        capacity: int = _INITIAL_CAPACITY,
    ):
        if n_columns < 0:
            raise ConfigurationError(
                f"n_columns must be >= 0, got {n_columns}"
            )
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}"
            )
        self.n_columns = n_columns
        self.dt = dt
        self.buffer_seconds = buffer_seconds
        self._capacity = capacity
        self._alloc(capacity)
        #: name -> row, in scalar ``_backlog_bytes`` insertion order.
        self._rows: dict[str, int] = {}
        #: Recycled rows, popped LIFO (deterministic reuse).
        self._free: list[int] = []
        #: Next never-used row when the free list is empty.
        self._high = 0
        #: High-water mark: every column >= ``written`` is still zero.
        self.written = 0
        #: Memoized ``rows_in_order()`` result (membership-keyed).
        self._order_cache: Optional[np.ndarray] = None

    def _alloc(self, capacity: int) -> None:
        self.demand_mbps = np.full(capacity, np.nan)
        self.arrival_bytes = np.zeros(capacity)
        self.limit_bytes = np.zeros(capacity)
        self.backlog_bytes = np.zeros(capacity)
        #: History column at which the stream opened.
        self.opened_col = np.zeros(capacity, dtype=np.int64)
        #: Delivered Mbps per (row, column); rows lag ``capacity`` until
        #: :meth:`_rows_fitted` is next called.
        self.history = np.zeros((0, self.n_columns))

    def _grow(self) -> None:
        old = self._capacity
        new = old * 2
        for field in (
            "demand_mbps",
            "arrival_bytes",
            "limit_bytes",
            "backlog_bytes",
            "opened_col",
        ):
            column = getattr(self, field)
            grown = np.empty(new, dtype=column.dtype)
            grown[old:] = np.nan if field == "demand_mbps" else 0
            grown[:old] = column
            setattr(self, field, grown)
        self._capacity = new

    def _rows_fitted(self) -> np.ndarray:
        """The history matrix, grown to the row capacity if it lags."""
        history = self.history
        if history.shape[0] < self._capacity:
            grown = np.zeros((self._capacity, self.n_columns))
            written = self.written
            grown[: history.shape[0], :written] = history[:, :written]
            self.history = history = grown
        return history

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def n_open(self) -> int:
        return len(self._rows)

    @property
    def capacity(self) -> int:
        return self._capacity

    def row(self, name: str) -> int:
        """Row index of one open stream."""
        return self._rows[name]

    def names(self) -> Iterator[str]:
        """Open stream names in scalar backlog-dict insertion order."""
        return iter(self._rows)

    def rows_in_order(self) -> np.ndarray:
        """Row indices of all open streams, insertion-ordered."""
        if self._order_cache is None:
            self._order_cache = np.fromiter(
                self._rows.values(), dtype=np.int64, count=len(self._rows)
            )
        return self._order_cache

    def open(self, spec: StreamSpec, opened_col: int) -> int:
        """Allocate (or recycle) a row for a newly opened stream."""
        if spec.name in self._rows:
            raise ConfigurationError(
                f"stream {spec.name!r} already has a row"
            )
        if self._free:
            row = self._free.pop()
        else:
            if self._high >= self._capacity:
                self._grow()
            row = self._high
            self._high += 1
        demand = spec.demand_mbps
        if demand is None:
            self.demand_mbps[row] = np.nan
            self.arrival_bytes[row] = 0.0
            self.limit_bytes[row] = 0.0
        else:
            self.demand_mbps[row] = demand
            # Same call order as the scalar loop's per-step recompute.
            self.arrival_bytes[row] = bytes_in_interval(demand, self.dt)
            self.limit_bytes[row] = bytes_in_interval(
                demand, self.buffer_seconds
            )
        self.backlog_bytes[row] = 0.0
        self.opened_col[row] = opened_col
        self._rows[spec.name] = row
        self._order_cache = None
        return row

    def close(self, name: str, cur_col: int) -> int:
        """Free a stream's row and forget its name; views stay valid."""
        row = self._rows.pop(name, None)
        if row is None:
            raise ConfigurationError(f"stream {name!r} has no row")
        self.backlog_bytes[row] = 0.0
        self._free.append(row)
        self._order_cache = None
        return row

    # ------------------------------------------------------------------
    # scalar-faithful views (reports / checkpoints)
    # ------------------------------------------------------------------
    def write(self, rows, cols, values) -> None:
        """Write delivered mbps into ``history[rows, cols]``.

        The one writer of the matrix: ``cols`` is a column index (a
        delivery step, ``rows`` an index array) or a slice with a
        ``stop`` (a restored series, ``rows`` one row).  It advances
        ``written``, which bounds what :meth:`_rows_fitted` copies.
        """
        history = self._rows_fitted()
        if type(cols) is slice:
            history[rows, cols] = values
            stop = cols.stop
        else:
            # A 1-D scatter into the column's strided view costs less
            # than the 2-D fancy index.
            history[:, cols][rows] = values
            stop = cols + 1
        if stop > self.written:
            self.written = stop

    def history_array(self, name: str, cur_col: int) -> np.ndarray:
        """Read-only view of one open stream's delivered mbps (empty if
        the stream is not open).

        The view shares the history matrix: it is never a copy, and it
        keeps that matrix alive while held.  Its values never change
        (later writes land at columns past it, or in a new matrix after
        a grow or reset); ``np.array(view)`` detaches a writable copy.
        """
        row = self._rows.get(name)
        if row is None:
            return _EMPTY
        view = self._rows_fitted()[row, int(self.opened_col[row]):cur_col]
        view.flags.writeable = False
        return view

    def backlog_items(self) -> Iterator[tuple[str, float]]:
        """(name, backlog_bytes) pairs in scalar dict order."""
        for name, row in self._rows.items():
            yield name, float(self.backlog_bytes[row])

    def set_backlog(self, name: str, value: float) -> None:
        self.backlog_bytes[self._rows[name]] = value

    def load_history(self, name: str, series: np.ndarray) -> None:
        """Restore one open stream's delivered history (checkpoint load)."""
        row = self._rows[name]
        start = int(self.opened_col[row])
        stop = start + len(series)
        if stop > self.n_columns:
            raise ConfigurationError(
                f"history for {name!r} overruns the realization: "
                f"{len(series)} samples from column {start} "
                f"(width {self.n_columns})"
            )
        self.write(row, slice(start, stop), series)

    def reset(self, n_columns: Optional[int] = None) -> None:
        """Drop every row and history (checkpoint restore onto fresh state)."""
        if n_columns is not None:
            self.n_columns = n_columns
        self._capacity = max(_INITIAL_CAPACITY, self._capacity)
        self._alloc(self._capacity)
        self._rows = {}
        self._free = []
        self._high = 0
        self.written = 0
        self._order_cache = None
