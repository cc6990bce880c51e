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
request lists once per mapping into per-path slot arrays (row and
weight per slot, in contiguous level groups with each rule's bounded
rows and parameters gathered) and re-derives only the per-step demands
from the backlog column.  The templates encode PGOS's allocation rules,
so the engine refuses any other scheduler.
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

# Rule kinds a compiled level group can carry (template-internal).
_KIND_RULE1 = 0  # scheduled on this path: demand = min(backlog, mapped_here)
_KIND_RULE2 = 1  # scheduled elsewhere: demand = max(backlog - mapped_total, 0)
_KIND_RULE3 = 2  # unscheduled/elastic: demand = backlog
_KIND_FALLBACK = 3  # no history yet: demand = backlog / n_usable

_NAME = attrgetter("name")
_ELASTIC = attrgetter("elastic")
_WEIGHT = attrgetter("weight")
_PRECEDENCE = attrgetter("mapping_precedence")
#: The shares of a stream absent from ``rates_mbps``; never written.
_NO_RATES: dict[str, float] = {}


def _as_index(idx: np.ndarray):
    """Ascending slot indices as a slice when they are one contiguous run,
    so the hot loop reads a view instead of gathering."""
    if idx.size and int(idx[-1]) - int(idx[0]) == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class _PathTemplate:
    """One path's compiled request slots (static until the mapping changes).

    Slots are sorted by level, each level group contiguous and in
    request order: water_fill's ``sorted({r.level})`` iteration with
    each level's pending list in request order.  Every row occurs at
    most once per path, so the order *across* levels changes no grant
    and no backlog drain.
    """

    __slots__ = ("rows", "weight", "groups", "bounded", "hd", "demand")

    def __init__(self, groups: list) -> None:
        """``groups``: ``(level, kind, rows, weight, param, has_demand)``
        per present level, ascending, each in request order; ``param``
        is the rule parameter per slot (``None`` for rule 3)."""
        self.rows = np.concatenate([g[2] for g in groups])
        self.weight = np.concatenate([g[3] for g in groups])
        #: ``(level, lo, hi, total weight, any bounded demand)`` per
        #: group.  The total is the first pass's sequential weight fold,
        #: hoisted: every slot of a group files on that pass (rule 2's
        #: group recomputes it over the slots its gate keeps).
        self.groups = []
        #: ``(kind, slot index, rows, param)`` of each group's slots with
        #: a bounded demand: the gathers a step's demands need.
        self.bounded = []
        hd = []
        lo = 0
        for level, kind, rows, weight, param, has_demand in groups:
            hi = lo + rows.size
            idx = np.flatnonzero(has_demand)
            total = float(np.add.accumulate(weight)[-1])
            self.groups.append((level, lo, hi, total, idx.size > 0))
            if idx.size:
                self.bounded.append(
                    (
                        kind,
                        _as_index(lo + idx),
                        rows[idx],
                        None if param is None else param[idx],
                    )
                )
                hd.append(lo + idx)
            lo = hi
        #: Every bounded slot and its row: the grants the backlog caps.
        self.hd = None
        if hd:
            idx = np.concatenate(hd)
            self.hd = (_as_index(idx), self.rows[idx])
        #: The step's demands; unbounded slots stay inf (the scalar's
        #: ``None``), bounded ones are rewritten by every ``demands``.
        self.demand = np.full(lo, np.inf)

    def demands(self, bm_col: np.ndarray) -> np.ndarray:
        """The step's per-slot demands (``bm_col``: backlog Mbps per batch
        row).  Rule 2's ``> 1e-9`` request gate is the water-fill's."""
        d = self.demand
        for kind, index, rows, param in self.bounded:
            bm = bm_col[rows]
            if kind == _KIND_RULE1:
                d[index] = np.minimum(bm, param)
            elif kind == _KIND_RULE2:
                d[index] = np.maximum(bm - param, 0.0)
            elif kind == _KIND_RULE3:
                d[index] = bm
            else:
                d[index] = bm / param
        return d


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
        #: Backlog in Mbps per batch row, rewritten each step for the
        #: rows of bounded streams (no other row is read).
        self._bm_col = np.zeros(0)

    # ------------------------------------------------------------------
    # stream lifecycle (called from the service control plane)
    # ------------------------------------------------------------------
    def on_open(self, handle: "StreamHandle") -> None:
        svc = self.service
        self.batch.open(handle.spec, svc._k - svc._start_k)
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
        request and then at most one rule-3 request.  A rule fixes the
        level (1: scheduled here, 2: elsewhere, 3: unscheduled), so each
        path's level groups are the specs a rule selects, in spec order:
        the order that drives water-fill's pending iteration and its
        sequential float folds within a level.
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
        # Rule 3 (and the fallback's elastic level) files every elastic
        # spec on every usable path, in spec order.
        i3 = np.flatnonzero(elastic)

        if fallback:
            # Every spec on every usable path, the same request each.
            groups = [
                (
                    level,
                    _KIND_FALLBACK,
                    rows[i],
                    weights[i],
                    np.full(i.size, float(n_paths)),
                    has_demand[i],
                )
                for level, i in (
                    (LEVEL_SCHEDULED_HERE, np.flatnonzero(~elastic)),
                    (LEVEL_UNSCHEDULED, i3),
                )
                if i.size
            ]
            template = _PathTemplate(groups)
            return {p: template for p in usable}

        rates_mbps = sched.mapping.rates_mbps
        per_stream = list(map(rates_mbps.get, names, repeat(_NO_RATES)))
        rate = np.empty((n_paths, n))
        for j, path in enumerate(usable):
            rate[j] = np.fromiter(
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
        rule1 = guaranteed & (rate > 0)
        # Rule-2 slots with a bounded demand are *dynamic*: present only
        # when the step's excess exceeds 1e-9, gated per step by the
        # water-fill (see _water_fill).
        rule2 = (guaranteed & (total > 0)) & ~rule1
        both = (rule1 | rule2) & elastic
        if both.any():
            # Same error (and message) water_fill raises when one stream
            # files two requests on one path.
            name = streams[int(np.flatnonzero(both.any(axis=0))[0])].name
            raise ConfigurationError(
                f"duplicate request for stream {name!r} on one path"
            )
        # Rule 3: max(rate, 0.0), or the spec's weight spread evenly over
        # the usable paths where that is not positive.
        weight3 = np.maximum(rate[:, i3], 0.0)
        weight3 = np.where(weight3 <= 0, weights[i3] / n_paths, weight3)
        weight2 = np.maximum(total, 1e-6)
        rows3, has_demand3 = rows[i3], has_demand[i3]

        templates = {}
        for j, path in enumerate(usable):
            groups = []
            i = np.flatnonzero(rule1[j])
            if i.size:
                here = rate[j, i]
                groups.append(
                    (
                        LEVEL_SCHEDULED_HERE,
                        _KIND_RULE1,
                        rows[i],
                        here,
                        here,
                        has_demand[i],
                    )
                )
            i = np.flatnonzero(rule2[j])
            if i.size:
                groups.append(
                    (
                        LEVEL_SCHEDULED_ELSEWHERE,
                        _KIND_RULE2,
                        rows[i],
                        weight2[i],
                        total[i],
                        has_demand[i],
                    )
                )
            if i3.size:
                groups.append(
                    (
                        LEVEL_UNSCHEDULED,
                        _KIND_RULE3,
                        rows3,
                        weight3[j],
                        None,
                        has_demand3,
                    )
                )
            if groups:
                templates[path] = _PathTemplate(groups)
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
        # Only rows of bounded streams are read back (through the
        # templates' bounded slots), and each step rewrites all of them.
        dr = self._demand_row_indices()
        bm_col = self._bm_col
        if bm_col.size != capacity:
            bm_col = self._bm_col = np.zeros(capacity)
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

        # --- history column -------------------------------------------
        rows = batch.rows_in_order()
        if rows.size:
            batch.write(rows, k - svc._start_k, delivered_col[rows])

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
        """Vectorized :func:`repro.core.scheduler.water_fill` over slots.

        A level group's first pass reads slices of its contiguous slots
        and the weight total folded at compile; when no slot caps, or
        every slot does, that pass ends the group.  Only a partial cap
        compacts the pending slots into an index array.
        """
        if capacity_mbps < 0:
            raise ConfigurationError(
                f"capacity must be >= 0, got {capacity_mbps}"
            )
        d = template.demands(bm_col)
        weight = template.weight
        granted = np.zeros(d.size)
        remaining = capacity_mbps
        for level, lo, hi, total_weight, bounded in template.groups:
            if remaining <= 1e-12:
                break
            if level == LEVEL_SCHEDULED_ELSEWHERE:
                # Scalar drops a rule-2 request whose excess is not above
                # 1e-9 (an unbounded one, inf here, always files).
                files = d[lo:hi] > 1e-9
                if not files.any():
                    continue
                pend = lo + files.nonzero()[0]
                total_weight = float(np.add.accumulate(weight[pend])[-1])
            else:
                pend = slice(lo, hi)
            while True:
                fair = remaining * weight[pend] / total_weight
                if bounded:
                    dmd = d[pend]
                    capped = dmd <= fair + 1e-12
                    n_capped = np.count_nonzero(capped)
                else:
                    n_capped = 0
                if not n_capped:
                    granted[pend] += fair
                    # remaining = 0.0: no later level gets anything.
                    return granted
                if n_capped < capped.size:
                    if type(pend) is slice:
                        pend = np.arange(lo, hi)
                    granted[pend[capped]] += dmd[capped]
                    dmd = dmd[capped]
                    pend = pend[~capped]
                else:
                    granted[pend] += dmd
                # Scalar subtracts each capped demand one by one in
                # pending order; subtract.accumulate is that exact fold.
                remaining = float(
                    np.subtract.accumulate(
                        np.concatenate(((remaining,), dmd))
                    )[-1]
                )
                # Replicates max(remaining, 0.0) — which returns -0.0 on
                # a -0.0 input in CPython, so only true negatives clamp.
                if remaining < 0.0:
                    remaining = 0.0
                if n_capped == capped.size or remaining <= 1e-12:
                    break
                # Sequential left fold == Python sum() bit for bit.
                total_weight = float(np.add.accumulate(weight[pend])[-1])
        return granted

    def _apply_grants(
        self,
        template: _PathTemplate,
        granted: np.ndarray,
        delivered_col: np.ndarray,
        dt: float,
    ) -> None:
        """Grants → bytes → backlog drain → delivered Mbps, per slot.

        Converts ``granted`` in place, in the scalar's expression order.
        Zero-grant slots ride along: ``x - 0.0`` and ``x + 0.0`` are
        bit-exact no-ops for the non-negative values involved, matching
        the scalar's explicit ``mbps <= 0`` skip.
        """
        nbytes = granted
        nbytes *= 1_000_000
        nbytes /= 8.0
        nbytes *= dt
        if template.hd is not None:
            index, rows = template.hd
            backlog_bytes = self.batch.backlog_bytes
            backlog = backlog_bytes[rows]
            nb = np.minimum(nbytes[index], backlog)
            nbytes[index] = nb
            backlog -= nb
            backlog_bytes[rows] = backlog
        nbytes /= dt
        nbytes *= 8.0
        nbytes /= 1_000_000
        # Each row occurs once per template: add.at is ``+=`` per slot.
        np.add.at(delivered_col, template.rows, nbytes)

    # ------------------------------------------------------------------
    # checkpoint materialization
    # ------------------------------------------------------------------
    def rebuild_from_state(self, state: dict) -> None:
        """Repopulate the batch from a service ``state_dict`` snapshot.

        Rows are opened in the snapshot's ``handles`` order — open
        order, the order the batch had — so a later ``state_dict()``
        round-trips byte-identically.  A packed series that does not
        decode, or whose length is not the stream's open interval count,
        raises :class:`CheckpointError`.
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
            batch.open(handle.spec, opened_col)
            batch.set_backlog(name, float(backlog[name]))
            series = unpack_series(delivered[name])
            if series.size != cur_col - opened_col:
                raise CheckpointError(
                    f"delivered series of {name!r} has {series.size} "
                    f"values for {cur_col - opened_col} open intervals"
                )
            if series.size:
                batch.load_history(name, series)
