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
from the backlog column.  What a compile reads per stream lives in
serving-order columns kept across steps and edited as streams are
served and unserved; a compile re-reads only the rates a solve changed
(docs/sim.md, "What a solve hands to delivery").  The templates encode
PGOS's allocation rules, so the engine refuses any other scheduler.
"""

from __future__ import annotations

import math
import weakref
from itertools import accumulate, compress, count, repeat
from operator import attrgetter, ne
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.core.batchstate import BatchState
from repro.core.mapping import ResourceMapping, eligible_paths
from repro.core.pgos import (
    LEVEL_SCHEDULED_ELSEWHERE,
    LEVEL_SCHEDULED_HERE,
    LEVEL_UNSCHEDULED,
    PGOSScheduler,
)
from repro.core.spec import StreamSpec
from repro.errors import CheckpointError, ConfigurationError
from repro.series import unpack_series

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mapping import SolvedPlacements
    from repro.middleware.service import IQPathsService, StreamHandle

__all__ = ["VectorizedDelivery"]

# Rule kinds a compiled level group can carry (template-internal).
_KIND_RULE1 = 0  # scheduled on this path: demand = min(backlog, mapped_here)
_KIND_RULE2 = 1  # scheduled elsewhere: demand = max(backlog - mapped_total, 0)
_KIND_RULE3 = 2  # unscheduled/elastic: demand = backlog
_KIND_FALLBACK = 3  # no history yet: demand = backlog / n_usable

_RECORD_NAME = attrgetter("spec.name")
_SHARES = attrgetter("shares")
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

    def __init__(
        self, rows: np.ndarray, has_demand: np.ndarray, groups: list
    ) -> None:
        """``rows`` and ``has_demand``: per serving row.  ``groups``:
        ``(level, kind, at, weight, param)`` per present level,
        ascending: the serving rows ``at`` the level files, in request
        order, their weights, and the rule parameter — per slot (rule
        2's mapped total), ``None`` where it is the slot's weight (rule
        1) or unused (rule 3), or one number for all (the fallback's
        path count)."""
        at = np.concatenate([g[2] for g in groups])
        self.rows = rows[at]
        self.weight = np.concatenate([g[3] for g in groups])
        hd = has_demand[at].nonzero()[0]
        hd_rows = self.rows[hd]
        #: ``(level, lo, hi, total weight, any bounded demand)`` per
        #: group.  The total is the first pass's sequential weight fold,
        #: hoisted: every slot of a group files on that pass.  Rule 2's
        #: group keeps none: its gate keeps a step's own slots, and the
        #: fill folds those.
        self.groups = []
        #: ``(kind, slot index, rows, param)`` of each group's slots with
        #: a bounded demand: the gathers a step's demands need.
        self.bounded = []
        his = list(accumulate([g[2].size for g in groups]))
        lo = 0
        cut = 0
        for (level, kind, _, weight, param), hi, end in zip(
            groups, his, hd.searchsorted(his).tolist()
        ):
            total = 0.0
            if kind != _KIND_RULE2:
                total = float(np.add.accumulate(weight)[-1])
            self.groups.append((level, lo, hi, total, end > cut))
            if end > cut:
                slots = hd[cut:end]
                if param is None and kind == _KIND_RULE1:
                    param = self.weight[slots]
                elif type(param) is np.ndarray:
                    param = param[slots - lo]
                self.bounded.append(
                    (kind, _as_index(slots), hd_rows[cut:end], param)
                )
            lo, cut = hi, end
        #: Every bounded slot and its row: the grants the backlog caps.
        self.hd = (_as_index(hd), hd_rows) if hd.size else None
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


class _Serving:
    """The scheduler's serving streams as columns, in serving order.

    Edited as ``scheduler.streams`` is: :meth:`add` appends a stream
    (``add_stream``), :meth:`remove` deletes one in place
    (``remove_stream``), so a degradation downgrade, a remove then an
    add, moves the stream to the end in both.  Per row: the batch row,
    the elastic and guaranteed-or-bound flags, whether the batch row has
    a bounded demand, the fair-queuing weight, the elastic class, and
    the rates on each path (one matrix row per path) with their total.
    Only :meth:`read_rates` writes the rates.
    """

    def __init__(self, paths: Sequence[str], capacity: int = 64):
        self.path_index = {p: j for j, p in enumerate(paths)}
        self.names: list[str] = []
        self.n = 0
        self._columns(
            np.zeros((2, capacity), np.int64),
            np.zeros((3, capacity), bool),
            np.zeros((2 + len(self.path_index), capacity)),
        )
        #: Per guaranteed row read from a one-path placement, the shares
        #: its rates hold, and the usable paths they were read on.
        self.held: dict[str, dict[str, float]] = {}
        self.usable: list[str] = []
        #: Elastic class per (weight, RTT ceiling, loss ceiling): the
        #: streams of a class take one elastic split.  One spec per
        #: class, and how many purely elastic rows it has.
        self.classes: dict[tuple, int] = {}
        self.class_specs: list[StreamSpec] = []
        self.class_rows: list[int] = []

    def _columns(self, ints, flags, floats) -> None:
        """Install the three column blocks (an edit moves each in one
        operation) and name their rows."""
        self._ints, self._flags, self._floats = ints, flags, floats
        self.row, self.cls = ints
        self.elastic, self.guaranteed, self.bounded = flags
        self.weight, self.total = floats[:2]
        self.rate = floats[2:]

    def _grow(self) -> None:
        blocks = []
        for block in (self._ints, self._flags, self._floats):
            grown = np.zeros((block.shape[0], 2 * block.shape[1]), block.dtype)
            grown[:, : block.shape[1]] = block
            blocks.append(grown)
        self._columns(*blocks)

    def add(self, spec: StreamSpec, row: int, bounded: bool) -> None:
        """Append ``spec`` served from batch row ``row`` (whose demand is
        ``bounded`` or not), with no rates."""
        weight = spec.weight  # raises for an elastic spec without one
        guaranteed = spec.mapping_precedence is not None
        n = self.n
        if n == self.row.size:
            self._grow()
        self.names.append(spec.name)
        cls = 0
        if spec.elastic:
            key = (weight, spec.max_rtt_ms, spec.max_loss_rate)
            cls = self.classes.get(key)
            if cls is None:
                cls = self.classes[key] = len(self.class_specs)
                self.class_specs.append(spec)
                self.class_rows.append(0)
            if not guaranteed:
                self.class_rows[cls] += 1
        self.row[n] = row
        self.cls[n] = cls
        self.elastic[n] = spec.elastic
        self.guaranteed[n] = guaranteed
        self.bounded[n] = bounded
        self._floats[:, n] = 0.0
        self.weight[n] = weight
        self.n = n + 1

    def remove(self, name: str) -> None:
        """Delete ``name``'s row; the rows behind it move up one."""
        i = self.names.index(name)
        del self.names[i]
        self.held.pop(name, None)
        if self.elastic[i] and not self.guaranteed[i]:
            self.class_rows[int(self.cls[i])] -= 1
        n = self.n
        for block in (self._ints, self._flags, self._floats):
            block[:, i : n - 1] = block[:, i + 1 : n]
        self.n = n - 1

    def read_rates(
        self, mapping: ResourceMapping, usable: list[str]
    ) -> int:
        """Bring the rates on the ``usable`` paths to ``mapping``'s;
        returns how many rows were read from per-stream objects.

        A mapping handed its rates (an explicit table) is read whole.
        A solve's (:class:`repro.core.mapping.SolvedPlacements`) is read
        by edit.  A guaranteed row is read from its placement record
        only when the record's shares differ from those the row holds:
        one-path shares are positive, so equal dicts hold the same bits
        (a split is read every time, since its total follows dict
        order).  Other usable paths reset what every row holds.  Purely
        elastic rows take their class's share vector, one split per
        class.  (A spec both guaranteed and elastic, which the service
        refuses at open, holds its placed shares only: positive, so the
        compile refuses it as a duplicate request, as water-fill does.)
        """
        n = self.n
        held = self.held
        if usable != self.usable:
            self.usable = usable
            held.clear()
        solve = mapping.placements
        if solve is None:
            rates = mapping.rates_mbps
            held.clear()
            return self._write(
                np.arange(n),
                list(map(rates.get, self.names, repeat(_NO_RATES))),
                usable,
            )
        placed = solve.placed
        names = list(map(_RECORD_NAME, placed))
        shares = list(map(_SHARES, placed))
        changed = list(
            compress(count(), map(ne, shares, map(held.get, names)))
        )
        read = 0
        if changed:
            at_of = dict(zip(self.names, count()))
            at = np.array([at_of[names[i]] for i in changed], np.int64)
            rates = [shares[i] for i in changed]
            read = self._write(at, rates, usable)
            for i in changed:
                if len(shares[i]) == 1:
                    held[names[i]] = shares[i]
                else:
                    held.pop(names[i], None)
        if any(self.class_rows):
            pure = (self.elastic[:n] > self.guaranteed[:n]).nonzero()[0]
            self._split(solve, pure, usable)
        return read

    def _write(
        self, at: np.ndarray, rates: list, usable: Sequence[str]
    ) -> int:
        """Rows ``at`` take the per-path rates and total of ``rates``
        (one dict per row), read with one C-level pass per path."""
        k = len(rates)
        for p in usable:
            self.rate[self.path_index[p], at] = np.fromiter(
                map(dict.get, rates, repeat(p), repeat(0.0)), float, k
            )
        # Python sum in dict insertion order: the scalar's
        # ``sum(rates.values())``, the same sequential fold.
        self.total[at] = np.fromiter(
            map(sum, map(dict.values, rates)), float, k
        )
        return k

    def _split(
        self,
        solve: "SolvedPlacements",
        pure: np.ndarray,
        usable: Sequence[str],
    ) -> None:
        """Rows ``pure`` (purely elastic) take their class's shares."""
        leftover, total_leftover = solve.leftover()
        table = []
        for spec, rows in zip(self.class_specs, self.class_rows):
            shares = _NO_RATES
            if rows:
                shares = solve.elastic_split(
                    spec.weight,
                    eligible_paths(spec, solve.paths, solve.qos),
                    leftover,
                    total_leftover,
                )
            table.append([shares.get(p, 0.0) for p in usable])
        table = np.array(table)
        cls = self.cls[pure]
        for j, p in enumerate(usable):
            self.rate[self.path_index[p], pure] = table[cls, j]


class VectorizedDelivery:
    """Struct-of-arrays delivery engine bound to one service instance.

    The service forwards its stream lifecycle (open/close), each edit of
    the scheduler's serving streams (serve/unserve), the per-step
    delivery call, and checkpoint materialization here; everything else
    stays on the scalar control plane.
    """

    #: Work counters: template compiles, and serving rows whose columns
    #: were derived from per-stream objects (a serve, or a compile's
    #: read of a rate row).
    compiles = 0
    rows_rederived = 0

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
        self.serve_all(())
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

    def serve(self, spec: StreamSpec) -> None:
        """The scheduler's ``add_stream(spec)``; the stream's batch row
        must be open."""
        batch = self.batch
        row = batch.row(spec.name)
        # Demand presence comes from the *original* handle spec (the
        # service keys backlog_mbps off h.spec), which is what the batch
        # columns were filled from at open time.
        self.serving.add(spec, row, not math.isnan(batch.demand_mbps[row]))
        self.rows_rederived += 1

    def unserve(self, name: str) -> None:
        """The scheduler's ``remove_stream(name)``."""
        self.serving.remove(name)

    def serve_all(self, specs: Iterable[StreamSpec]) -> None:
        """Serve ``specs``, in order, from empty columns: the full
        rebuild (a checkpoint restore) is the same edits."""
        self.serving = _Serving(self.service.path_names)
        # Per-path compiled request slots, keyed by mapping identity:
        # every event that voids requests (membership change, quarantine
        # flip, CDF-shift remap) installs a fresh mapping object.
        self._templates: Optional[dict[str, _PathTemplate]] = None
        self._template_mapping: Optional[object] = None
        for spec in specs:
            self.serve(spec)

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
    def compile(self, fallback: bool) -> dict[str, _PathTemplate]:
        """Compile PGOS's request lists into per-path slot arrays.

        Mirrors ``PGOSScheduler._allocate_inner`` (or
        ``_fallback_requests`` when ``fallback``) request for request,
        from the serving columns: the rates are first brought to the
        installed mapping (:meth:`_Serving.read_rates`), then every
        rule is a mask over the columns (docs/sim.md, "What a solve
        hands to delivery").  On each usable path the scalar loop files,
        per serving spec in order, at most one rule-1/rule-2 request and
        then at most one rule-3 request.  A rule fixes the level (1:
        scheduled here, 2: elsewhere, 3: unscheduled), so each path's
        level groups are the specs a rule selects, in spec order: the
        order that drives water-fill's pending iteration and its
        sequential float folds within a level.
        """
        svc = self.service
        sched = svc.scheduler
        serving = self.serving
        self.compiles += 1
        if svc.obs.enabled:
            svc.obs.metrics.counter("delivery.template_compiles").inc()
        n = serving.n
        if not n:
            return {}
        usable = sched.usable_paths
        n_paths = len(usable)
        rows = serving.row[:n]
        has_demand = serving.bounded[:n]
        elastic = serving.elastic[:n]
        weights = serving.weight[:n]
        # Rule 3 (and the fallback's elastic level) files every elastic
        # spec on every usable path, in spec order.
        i3 = elastic.nonzero()[0]

        if fallback:
            # Every spec on every usable path, the same request each.
            groups = [
                (level, _KIND_FALLBACK, i, weights[i], float(n_paths))
                for level, i in (
                    (LEVEL_SCHEDULED_HERE, (~elastic).nonzero()[0]),
                    (LEVEL_UNSCHEDULED, i3),
                )
                if i.size
            ]
            template = _PathTemplate(rows, has_demand, groups)
            return {p: template for p in usable}

        self.rows_rederived += serving.read_rates(sched.mapping, usable)
        rate = serving.rate[[serving.path_index[p] for p in usable], :n]
        total = serving.total[:n]
        # Guaranteed or violation-bound: exactly the specs with a
        # placement precedence.
        guaranteed = serving.guaranteed[:n]
        rule1 = guaranteed & (rate > 0)
        # Rule-2 slots with a bounded demand are *dynamic*: present only
        # when the step's excess exceeds 1e-9, gated per step by the
        # water-fill (see _water_fill).
        rule2 = (guaranteed & (total > 0)) & ~rule1
        if (guaranteed & elastic).any():
            both = ((rule1 | rule2) & elastic).any(axis=0)
            if both.any():
                # Same error (and message) water_fill raises when one
                # stream files two requests on one path.
                name = serving.names[int(both.nonzero()[0][0])]
                raise ConfigurationError(
                    f"duplicate request for stream {name!r} on one path"
                )
        # Rule 3: max(rate, 0.0), or the spec's weight spread evenly over
        # the usable paths where that is not positive.
        weight3 = np.maximum(rate[:, i3], 0.0)
        weight3 = np.where(weight3 <= 0, weights[i3] / n_paths, weight3)
        weight2 = np.maximum(total, 1e-6)

        templates = {}
        for j, path in enumerate(usable):
            groups = []
            i = rule1[j].nonzero()[0]
            if i.size:
                groups.append(
                    (LEVEL_SCHEDULED_HERE, _KIND_RULE1, i, rate[j, i], None)
                )
            i = rule2[j].nonzero()[0]
            if i.size:
                groups.append(
                    (
                        LEVEL_SCHEDULED_ELSEWHERE,
                        _KIND_RULE2,
                        i,
                        weight2[i],
                        total[i],
                    )
                )
            if i3.size:
                groups.append(
                    (LEVEL_UNSCHEDULED, _KIND_RULE3, i3, weight3[j], None)
                )
            if groups:
                templates[path] = _PathTemplate(rows, has_demand, groups)
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
            templates = self.compile(fallback=True)
            self._template_mapping = None
            self._templates = None
            return templates
        if sched._needs_remap():
            sched.remap()
        if (
            self._templates is None
            or sched.mapping is not self._template_mapping
        ):
            self._templates = self.compile(fallback=False)
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
        """Repopulate the batch from a service ``state_dict`` snapshot,
        then serve the restored scheduler's streams from empty columns.

        Rows are opened in the snapshot's ``handles`` order — open
        order, the order the batch had — so a later ``state_dict()``
        round-trips byte-identically.  A packed series that does not
        decode, or whose length is not the stream's open interval count,
        raises :class:`CheckpointError`.
        """
        svc = self.service
        batch = self.batch
        batch.reset()
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
        self.serve_all(svc.scheduler.streams if svc._scheduler_bound else ())
