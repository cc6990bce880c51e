"""Vectorized (struct-of-arrays) delivery engine of the service loop.

A per-stream delivery loop advances every open stream per interval as
individual Python objects: per-stream backlog accrual, a PGOS
allocation pass that rebuilds ``PathShareRequest`` objects, a per-path
:func:`repro.core.scheduler.water_fill`, and per-grant delivery
accounting.  At 1000+ concurrent streams that is ~O(streams × paths) of
Python-object work per 100 ms interval.  That loop is the *reference*
this engine is tested against (``tests/oracles/scalar_service.py``);
nothing in ``src/`` can select it.

:class:`VectorizedDelivery` runs that delivery step as columnar numpy
operations over :class:`repro.core.batchstate.BatchState` rows, keeping
the event engine and the rest of the middleware (admission, remap,
health, degradation, checkpoint control plane) as the scalar control
plane.  The contract with the reference is **bit-identity**, not
approximation: every float operation replicates the scalar code's
expression shape and evaluation order, so reports, trace checksums, and
snapshot digests come out byte-equal.  The load-bearing equivalences:

* ``sum()`` in Python is a sequential left fold; ``ndarray.sum`` is
  pairwise and NOT bit-compatible.  Order-sensitive reductions use
  ``np.add.accumulate`` / ``np.subtract.accumulate``, which are
  sequential and reproduce the scalar fold exactly (``0 + w0 == w0``
  for the first term).
* Elementwise float64 ``+ - * / minimum maximum`` and comparisons are
  IEEE-identical to the scalar operators applied per element.
* Unit conversions inline the exact expressions from
  :mod:`repro.units` — ``((mbps * 1_000_000) / 8.0) * dt`` and
  ``((nbytes / dt) * 8.0) / 1_000_000`` — with the same associativity.
* The water-fill's ``remaining = max(remaining, 0.0)`` is replicated as
  ``if remaining < 0.0``: CPython's ``max(-0.0, 0.0)`` returns ``-0.0``
  (it keeps the first argument on ties), and the subtraction loop can
  produce exact zeros whose sign must not be "fixed".

Requests are not rebuilt per interval.  The PGOS request structure is a
pure function of the serving stream set, the resource mapping, and the
usable paths — all of which are invalidated through
``scheduler.mapping`` (membership changes and quarantine flips void it;
every remap installs a fresh object).  The engine therefore compiles the
request lists once per mapping into per-path slot arrays (row, rule
kind, rule parameter, weight, level) and re-derives only the per-step
demands from the backlog column.  The templates encode PGOS's
allocation rules, so the engine refuses any other scheduler.
"""

from __future__ import annotations

import weakref
from itertools import repeat
from operator import attrgetter, is_not
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.batchstate import BatchState
from repro.core.pgos import (
    LEVEL_SCHEDULED_ELSEWHERE,
    LEVEL_SCHEDULED_HERE,
    LEVEL_UNSCHEDULED,
    PGOSScheduler,
)
from repro.errors import CheckpointError, ConfigurationError
from repro.series import unpack_series

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.middleware.service import IQPathsService, StreamHandle

__all__ = ["VectorizedDelivery"]

# Rule kinds a compiled request slot can carry (template-internal).
_KIND_RULE1 = 0  # scheduled on this path: demand = min(backlog, mapped_here)
_KIND_RULE2 = 1  # scheduled elsewhere: demand = max(backlog - mapped_total, 0)
_KIND_RULE3 = 2  # unscheduled/elastic: demand = backlog
_KIND_FALLBACK = 3  # no history yet: demand = backlog / n_usable
_NO_DEMAND = 4  # grouping key of a slot without a bounded demand

_NAME = attrgetter("name")
_ELASTIC = attrgetter("elastic")
_WEIGHT = attrgetter("weight")
_PRECEDENCE = attrgetter("mapping_precedence")
#: The shares of a stream absent from ``rates_mbps``; never written.
_NO_RATES: dict[str, float] = {}


def _slots_by(key: np.ndarray, size: int) -> list[np.ndarray]:
    """Slot indices grouped by ``key`` value ``0 .. size - 1``, each group
    in slot order: one stable argsort, cut at the bincount boundaries."""
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=size)).tolist()
    return [order[lo:hi] for lo, hi in zip([0] + ends, ends[:size])]


class _PathTemplate:
    """One path's compiled request slots (static until the mapping changes)."""

    __slots__ = (
        "rows",
        "weight",
        "level",
        "param",
        "level_groups",
        "idx_rule1",
        "idx_rule2",
        "idx_rule3",
        "idx_fallback",
        "idx_hd",
        "rows_hd",
    )

    def __init__(
        self,
        rows: np.ndarray,
        weight: np.ndarray,
        level: np.ndarray,
        kind: np.ndarray,
        param: np.ndarray,
        has_demand: np.ndarray,
    ):
        self.rows = rows
        self.weight = weight
        self.level = level
        self.param = param
        # Strict-priority groups of the levels present, ascending, slot
        # order preserved (matches water_fill's sorted({r.level})
        # iteration; a group that is fully inactive this step
        # degenerates to a no-op, exactly as an absent level would).
        self.level_groups = [
            group
            for group in _slots_by(level, LEVEL_UNSCHEDULED + 1)
            if group.size
        ]
        (
            self.idx_rule1,
            self.idx_rule2,
            self.idx_rule3,
            self.idx_fallback,
        ) = _slots_by(np.where(has_demand, kind, _NO_DEMAND), _NO_DEMAND)
        self.idx_hd = np.flatnonzero(has_demand)
        self.rows_hd = rows[self.idx_hd]

    def demands(self, bm_col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The step's per-slot demands and which slots file a request.

        ``bm_col`` is the backlog in Mbps per batch row; a demand of inf
        encodes the scalar's ``None`` (unbounded).
        """
        d = np.full(len(self.rows), np.inf)
        active = np.ones(len(self.rows), dtype=bool)
        idx = self.idx_rule1
        if idx.size:
            d[idx] = np.minimum(bm_col[self.rows[idx]], self.param[idx])
        idx = self.idx_rule2
        if idx.size:
            excess = np.maximum(bm_col[self.rows[idx]] - self.param[idx], 0.0)
            d[idx] = excess
            # Scalar drops the rule-2 request entirely when the excess is
            # negligible (excess > 1e-9 gate).
            active[idx] = excess > 1e-9
        idx = self.idx_rule3
        if idx.size:
            d[idx] = bm_col[self.rows[idx]]
        idx = self.idx_fallback
        if idx.size:
            d[idx] = bm_col[self.rows[idx]] / self.param[idx]
        return d, active


class VectorizedDelivery:
    """Struct-of-arrays delivery engine bound to one service instance.

    The service forwards its stream lifecycle (open/close), the per-step
    delivery call, and checkpoint materialization here; everything else
    stays on the scalar control plane.
    """

    def __init__(self, service: "IQPathsService"):
        if not isinstance(service.scheduler, PGOSScheduler):
            raise ConfigurationError(
                "the delivery engine requires a PGOSScheduler, got "
                f"{type(service.scheduler).__name__}"
            )
        # The service owns this engine; a strong back-pointer would make
        # every finished service a reference cycle.
        self.service: "IQPathsService" = weakref.proxy(service)
        self.batch = BatchState(
            n_columns=service.realization.n_intervals - service._start_k,
            dt=service.dt,
            buffer_seconds=service.buffer_seconds,
        )
        # Per-path compiled request slots, keyed by mapping identity:
        # every event that voids requests (membership change, quarantine
        # flip, CDF-shift remap) installs a fresh mapping object.
        self._templates: Optional[dict[str, _PathTemplate]] = None
        self._template_mapping: Optional[object] = None
        self._demand_rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # stream lifecycle (called from the service control plane)
    # ------------------------------------------------------------------
    def on_open(self, handle: "StreamHandle") -> None:
        svc = self.service
        self.batch.open(
            handle.spec, handle.stream_id, svc._k - svc._start_k
        )
        self._demand_rows = None

    def on_close(self, name: str) -> None:
        svc = self.service
        self.batch.close(name, svc._k - svc._start_k)
        self._demand_rows = None

    def _demand_row_indices(self) -> np.ndarray:
        """Rows of open streams that have a bounded (CBR) demand."""
        rows = self._demand_rows
        if rows is None:
            batch = self.batch
            all_rows = batch.rows_in_order()
            rows = all_rows[~np.isnan(batch.demand_mbps[all_rows])]
            self._demand_rows = rows
        return rows

    # ------------------------------------------------------------------
    # request-template compilation
    # ------------------------------------------------------------------
    def _compile(self, fallback: bool) -> dict[str, _PathTemplate]:
        """Compile PGOS's request lists into per-path slot arrays.

        Mirrors ``PGOSScheduler._allocate_inner`` (or
        ``_fallback_requests`` when ``fallback``) request for request,
        built from per-stream columns, each one C-level pass over the
        streams, rather than one request at a time (docs/sim.md, "What a
        solve hands to delivery").  On each usable path the scalar loop
        files, per serving spec in order, at most one rule-1/rule-2
        request and then at most one rule-3 request, so spec ``i``'s
        candidates sit at slots ``2i`` and ``2i + 1`` and a path keeps
        the present ones in that order: the request-list order that
        drives water-fill's pending iteration and its sequential float
        folds.
        """
        svc = self.service
        sched = svc.scheduler
        batch = self.batch
        usable = sched.usable_paths
        streams = sched.streams
        if svc.obs.enabled:
            svc.obs.metrics.counter("delivery.template_compiles").inc()
        if not streams:
            return {}
        n, n_paths = len(streams), len(usable)
        names = list(map(_NAME, streams))
        rows = np.fromiter(map(batch.row, names), np.int64, n)
        # Demand presence comes from the *original* handle spec (the
        # service keys backlog_mbps off h.spec), which is what the batch
        # columns were filled from at open time.
        has_demand = ~np.isnan(batch.demand_mbps[rows])
        elastic = np.fromiter(map(_ELASTIC, streams), bool, n)
        weights = np.fromiter(map(_WEIGHT, streams), float, n)

        if fallback:
            # Every spec on every usable path, the same request each.
            template = _PathTemplate(
                rows,
                weights,
                np.where(elastic, LEVEL_UNSCHEDULED, LEVEL_SCHEDULED_HERE),
                np.full(n, _KIND_FALLBACK),
                np.full(n, float(n_paths)),
                has_demand,
            )
            return {p: template for p in usable}

        rates_mbps = sched.mapping.rates_mbps
        per_stream = list(map(rates_mbps.get, names, repeat(_NO_RATES)))
        rate = np.empty((n, n_paths))
        for j, path in enumerate(usable):
            rate[:, j] = np.fromiter(
                map(dict.get, per_stream, repeat(path), repeat(0.0)), float, n
            )
        # Compile-time Python sum in dict insertion order — the same
        # sequential fold the scalar allocator runs per interval.
        total = np.fromiter(map(sum, map(dict.values, per_stream)), float, n)
        # Guaranteed or violation-bound: exactly the specs with a
        # placement precedence.
        guaranteed = np.fromiter(
            map(is_not, map(_PRECEDENCE, streams), repeat(None)), bool, n
        )
        rule1 = guaranteed[:, None] & (rate > 0)
        # Rule-2 slots with a bounded demand are *dynamic*: present only
        # when the step's excess exceeds 1e-9, gated per step by the
        # active mask (see _PathTemplate.demands).
        rule12 = rule1 | (guaranteed & (total > 0))[:, None]
        both = rule12 & elastic[:, None]
        if both.any():
            # Same error (and message) water_fill raises when one stream
            # files two requests on one path.
            name = streams[int(np.flatnonzero(both.any(axis=1))[0])].name
            raise ConfigurationError(
                f"duplicate request for stream {name!r} on one path"
            )
        # Rule 3: max(rate, 0.0), or the spec's weight spread evenly over
        # the usable paths where that is not positive.
        spread = np.where(elastic, weights, 0.0)
        weight3 = np.maximum(rate, 0.0)
        weight3 = np.where(weight3 <= 0, (spread / n_paths)[:, None], weight3)

        present = np.empty((2 * n, n_paths), dtype=bool)
        present[0::2] = rule12
        present[1::2] = elastic[:, None]
        weight = np.empty((2 * n, n_paths))
        weight[0::2] = np.where(rule1, rate, np.maximum(total, 1e-6)[:, None])
        weight[1::2] = weight3
        level = np.empty((2 * n, n_paths), dtype=np.int64)
        level[0::2] = np.where(
            rule1, LEVEL_SCHEDULED_HERE, LEVEL_SCHEDULED_ELSEWHERE
        )
        level[1::2] = LEVEL_UNSCHEDULED
        kind = np.empty((2 * n, n_paths), dtype=np.int64)
        kind[0::2] = np.where(rule1, _KIND_RULE1, _KIND_RULE2)
        kind[1::2] = _KIND_RULE3
        param = np.empty((2 * n, n_paths))
        param[0::2] = np.where(rule1, rate, total[:, None])
        param[1::2] = 0.0
        slot_rows = np.repeat(rows, 2)
        slot_has_demand = np.repeat(has_demand, 2)

        templates = {}
        for j, path in enumerate(usable):
            idx = np.flatnonzero(present[:, j])
            if idx.size:
                templates[path] = _PathTemplate(
                    slot_rows[idx],
                    weight[idx, j],
                    level[idx, j],
                    kind[idx, j],
                    param[idx, j],
                    slot_has_demand[idx],
                )
        return templates

    def _current_templates(self) -> dict[str, _PathTemplate]:
        """The step's request templates, honoring PGOS's remap protocol.

        Replicates ``_allocate_inner``'s prelude exactly: no remap check
        at all before history exists (fallback recompiled per step — a
        cold path that only runs when warmup < min_history), otherwise
        one ``_needs_remap()`` per step (it owns the ``pgos.remap_check``
        span and the ``scheduler.remap_checks`` counter) and a
        ``remap()`` when it fires.
        """
        sched = self.service.scheduler
        if not sched.has_history:
            templates = self._compile(fallback=True)
            self._template_mapping = None
            self._templates = None
            return templates
        if sched._needs_remap():
            sched.remap()
        if (
            self._templates is None
            or sched.mapping is not self._template_mapping
        ):
            self._templates = self._compile(fallback=False)
            self._template_mapping = sched.mapping
        return self._templates

    # ------------------------------------------------------------------
    # the hot loop
    # ------------------------------------------------------------------
    def deliver(self, k: int, open_handles: list) -> None:
        """One interval: accrual, allocation, water-fill, delivery.

        Bit-identical to the scalar reference loop — see the module
        docstring for the equivalences this leans on.
        """
        svc = self.service
        batch = self.batch
        dt = batch.dt
        capacity = batch.capacity

        # --- backlog accrual (scalar: += arrival; min with limit) -----
        dr = self._demand_row_indices()
        bm_col = np.zeros(capacity)
        if dr.size:
            b = batch.backlog_bytes[dr] + batch.arrival_bytes[dr]
            np.minimum(b, batch.limit_bytes[dr], out=b)
            batch.backlog_bytes[dr] = b
            bm_col[dr] = ((b / dt) * 8.0) / 1_000_000

        # --- allocation prelude (owns the pgos.allocate span) ---------
        prof = svc.obs.prof
        if prof.enabled:
            with prof.span("pgos.allocate"):
                templates = self._current_templates()
        else:
            templates = self._current_templates()

        # --- per-path water-fill + delivery ---------------------------
        delivered_col = np.zeros(capacity)
        for p in svc.path_names:
            cap = svc._effective_avail(p, k)
            template = templates.get(p)
            if template is None:
                # Scalar still calls water_fill([], cap) here, whose only
                # observable act is the capacity validation.
                if cap < 0:
                    raise ConfigurationError(
                        f"capacity must be >= 0, got {cap}"
                    )
                continue
            granted = self._water_fill(template, bm_col, cap)
            self._apply_grants(template, granted, delivered_col, dt)

        # --- history column + telemetry counters ----------------------
        col = k - svc._start_k
        rows = batch.rows_in_order()
        if rows.size:
            vals = delivered_col[rows]
            batch.write(rows, col, vals)
            thr = batch.threshold_mbps[rows]
            batch.shortfall_windows[rows] += vals < thr

        if svc.obs.enabled:
            # The shortfall emitter iterates in open-handle order (which
            # diverges from row order after a close+reopen), so build the
            # delivered dict the way the scalar path does.  float() also
            # keeps np.float64 out of json-serialized trace events.
            delivered = {
                h.name: float(delivered_col[batch.row(h.name)])
                for h in open_handles
            }
            svc._emit_shortfalls(k, delivered)

    def _water_fill(
        self,
        template: _PathTemplate,
        bm_col: np.ndarray,
        capacity_mbps: float,
    ) -> np.ndarray:
        """Vectorized :func:`repro.core.scheduler.water_fill` over slots."""
        if capacity_mbps < 0:
            raise ConfigurationError(
                f"capacity must be >= 0, got {capacity_mbps}"
            )
        d, active = template.demands(bm_col)
        granted = np.zeros(len(d))
        weight = template.weight
        remaining = capacity_mbps
        for group in template.level_groups:
            if remaining <= 1e-12:
                break
            pend = group[active[group]]
            while pend.size and remaining > 1e-12:
                w = weight[pend]
                # Sequential left fold == Python sum() bit for bit.
                total_weight = float(np.add.accumulate(w)[-1])
                fair = remaining * w / total_weight
                dmd = d[pend]
                capped = dmd <= fair + 1e-12
                if not capped.any():
                    granted[pend] += fair
                    remaining = 0.0
                    break
                cidx = pend[capped]
                dc = d[cidx]
                granted[cidx] += dc
                # Scalar subtracts each capped demand one by one in
                # pending order; subtract.accumulate is that exact fold.
                remaining = float(
                    np.subtract.accumulate(
                        np.concatenate(((remaining,), dc))
                    )[-1]
                )
                pend = pend[~capped]
                # Replicates max(remaining, 0.0) — which returns -0.0 on
                # a -0.0 input in CPython, so only true negatives clamp.
                if remaining < 0.0:
                    remaining = 0.0
        return granted

    def _apply_grants(
        self,
        template: _PathTemplate,
        granted: np.ndarray,
        delivered_col: np.ndarray,
        dt: float,
    ) -> None:
        """Grants → bytes → backlog drain → delivered Mbps, per slot.

        Zero-grant slots ride along: ``x - 0.0`` and ``x + 0.0`` are
        bit-exact no-ops for the non-negative values involved, matching
        the scalar's explicit ``mbps <= 0`` skip.
        """
        batch = self.batch
        nbytes = ((granted * 1_000_000) / 8.0) * dt
        idx_hd = template.idx_hd
        if idx_hd.size:
            rows_hd = template.rows_hd
            backlog = batch.backlog_bytes[rows_hd]
            nb = np.minimum(nbytes[idx_hd], backlog)
            batch.backlog_bytes[rows_hd] = backlog - nb
            nbytes[idx_hd] = nb
        rows = template.rows
        batch.delivered_bytes[rows] += nbytes
        delivered_col[rows] += ((nbytes / dt) * 8.0) / 1_000_000

    # ------------------------------------------------------------------
    # checkpoint materialization
    # ------------------------------------------------------------------
    def rebuild_from_state(self, state: dict) -> None:
        """Repopulate the batch from a service ``state_dict`` snapshot.

        Rows are opened in the snapshot's ``handles`` order — open
        order, the order the batch had — so a later ``state_dict()``
        round-trips byte-identically.  A packed series that does not
        decode, or whose length is not the stream's open interval count,
        raises :class:`CheckpointError`.  The telemetry counters
        (``delivered_bytes`` / ``shortfall_windows``) restart at zero:
        they are diagnostic and deliberately excluded from snapshots.
        """
        svc = self.service
        batch = self.batch
        batch.reset()
        self._templates = None
        self._template_mapping = None
        self._demand_rows = None
        cur_col = svc._k - svc._start_k
        delivered = state["delivered"]
        backlog = state["backlog_bytes"]
        for handle, entry in zip(svc.handles.values(), state["handles"]):
            name = handle.name
            opened_col = int(entry["opened_col"])
            batch.open(handle.spec, handle.stream_id, opened_col)
            batch.set_backlog(name, float(backlog[name]))
            series = unpack_series(delivered[name])
            if series.size != cur_col - opened_col:
                raise CheckpointError(
                    f"delivered series of {name!r} has {series.size} "
                    f"values for {cur_col - opened_col} open intervals"
                )
            if series.size:
                batch.load_history(name, series)
