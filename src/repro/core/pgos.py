"""The Predictive Guarantee Overlay Scheduling (PGOS) algorithm.

Two faces of the same algorithm live here:

* :meth:`PGOSScheduler.allocate` — the window/interval-level interface used
  by the experiment driver: consults the per-path monitors, remaps when the
  stream set or a path CDF changed (Figure 7, lines 1–11), and emits
  priority-levelled bandwidth requests implementing the Table 1 precedence
  (scheduled-on-this-path first, scheduled-on-other-path second,
  unscheduled last).

* :func:`dispatch_window` — the packet-accurate fast path (Figure 7, lines
  12–17): walks the path lookup vector V_P, selects streams via the
  per-path scheduling vectors V_S, falls back through the precedence rules
  when a queue is empty, and switches paths immediately on blocking.  It
  moves per-stream queues of float deadlines (no object per packet),
  checks each pick against a local copy of its path's budget, and settles
  each path service once per window; the packet-object loop it replaced
  is kept as a test oracle (``tests/oracles/packet_dispatch.py``).

The interval-level requests are the *fluid* rendering of exactly what the
packet fast path does; ``tests/integration/test_pgos_consistency.py``
checks the two agree to within a packet quantum.
"""

from __future__ import annotations

from operator import is_
from typing import (
    Callable,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.errors import AdmissionError, CheckpointError, ConfigurationError
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.core.mapping import (
    PathQoSEstimate,
    PlacementFold,
    ResourceMapping,
    best_effort_mapping,
    compute_mapping,
    even_split_mapping,
)
from repro.core.scheduler import PathShareRequest, SchedulerBase
from repro.core.spec import StreamSpec
from repro.core.vectors import Schedule
from repro.monitoring.cdf import EmpiricalCDF
from repro.monitoring.monitor import PathMonitor
from repro.transport.packet import PacketQueue
from repro.transport.service import PathService

#: Table 1 precedence levels used in interval-mode requests.
LEVEL_SCHEDULED_HERE = 0
LEVEL_SCHEDULED_ELSEWHERE = 1
LEVEL_UNSCHEDULED = 2


class _SolvedMapping(NamedTuple):
    """A mapping together with the inputs it was solved against."""

    specs: Sequence[StreamSpec]
    cdfs: Mapping[str, EmpiricalCDF]
    qos: Mapping[str, PathQoSEstimate]
    mapping: ResourceMapping

    def answers(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        qos: Mapping[str, PathQoSEstimate],
        tw: float,
    ) -> bool:
        """Whether ``compute_mapping(specs, cdfs, tw, qos)`` is this mapping.

        Identity, not equality, on specs and CDFs: the same objects in
        the same order are the same problem, and a monitor hands out one
        snapshot object until its next sample, so neither test costs a
        comparison of contents.
        """
        return (
            self.mapping.tw == tw
            and len(self.specs) == len(specs)
            and all(map(is_, self.specs, specs))
            and list(self.cdfs) == list(cdfs)
            and all(map(is_, self.cdfs.values(), cdfs.values()))
            and self.qos == qos
        )


class PGOSScheduler(SchedulerBase):
    """Self-regulating overlay packet scheduler with statistical guarantees.

    Parameters
    ----------
    ks_threshold:
        Kolmogorov–Smirnov distance that counts as "the CDF changed
        dramatically" and triggers a remap.
    min_history:
        Minimum samples per path before the statistical mapping is
        trusted; with less history PGOS falls back to an even weighted
        split (it has nothing better to go on).
    split_strategy:
        ``"single-first"`` (the paper's policy: one path per guaranteed
        stream whenever possible) or ``"even"`` (ablation: split every
        stream evenly across paths).
    """

    name = "PGOS"

    def __init__(
        self,
        ks_threshold: float = 0.2,
        min_history: int = 30,
        split_strategy: str = "single-first",
    ):
        if min_history < 2:
            raise ConfigurationError(
                f"min_history must be >= 2, got {min_history}"
            )
        if split_strategy not in ("single-first", "even"):
            raise ConfigurationError(
                f"split_strategy must be 'single-first' or 'even', got "
                f"{split_strategy!r}"
            )
        self.ks_threshold = ks_threshold
        self.min_history = min_history
        self.split_strategy = split_strategy
        self._obs = NULL_OBS
        self._clock: Callable[[], float] = lambda: 0.0
        self.monitors: dict[str, PathMonitor] = {}
        #: Names of :attr:`streams`, kept beside the list so a duplicate
        #: check costs one lookup, not a scan of the population.
        self._names: set[str] = set()
        self.mapping: Optional[ResourceMapping] = None
        self._compiled: Optional[tuple[ResourceMapping, Schedule]] = None
        self._offer: Optional[_SolvedMapping] = None
        #: The placement fold remaps solve on; a service points it at
        #: its admission controller's, so a remap that cannot adopt the
        #: offer starts from admission's last placements.
        self.fold = PlacementFold()
        self.remap_count = 0
        #: True while serving with a stale or best-effort mapping because
        #: the workload is not admittable at its requested guarantees.
        self.degraded = False
        #: Paths the health layer has quarantined: excluded from the
        #: mapping and from every emitted request until re-admitted.
        self.quarantined: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    # SchedulerBase lifecycle
    # ------------------------------------------------------------------
    def setup(
        self,
        streams: Sequence[StreamSpec],
        path_names: Sequence[str],
        dt: float,
        tw: float,
    ) -> None:
        super().setup(streams, path_names, dt, tw)
        self._names = {s.name for s in self.streams}
        self.monitors = {
            p: PathMonitor(
                p,
                ks_threshold=self.ks_threshold,
                obs=self._obs,
                clock=self._clock,
            )
            for p in self.path_names
        }
        self.mapping = None
        self._offer = None
        self.remap_count = 0
        self.quarantined = frozenset()

    def bind_observability(
        self,
        obs: Observability,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Attach a per-run observability context (and virtual clock).

        Safe to call before or after :meth:`setup`; existing monitors are
        re-bound so every layer shares one trace.  The ``clock`` callable
        supplies the ``sim_time`` stamped on events the scheduler emits
        outside an ``observe``/``allocate`` call (remaps, quarantines).
        """
        self._obs = obs
        if clock is not None:
            self._clock = clock
        for monitor in self.monitors.values():
            monitor.bind_observability(self._obs, self._clock)

    def observe(
        self,
        interval: int,
        available_mbps: Mapping[str, float],
        rtt_ms: Optional[Mapping[str, float]] = None,
        loss_rate: Optional[Mapping[str, float]] = None,
    ) -> None:
        for path, mbps in available_mbps.items():
            monitor = self.monitors.get(path)
            if monitor is not None:
                monitor.observe_bandwidth(mbps)
        for series, method in ((rtt_ms, "observe_rtt"), (loss_rate, "observe_loss")):
            if series is None:
                continue
            for path, value in series.items():
                monitor = self.monitors.get(path)
                if monitor is not None:
                    getattr(monitor, method)(value)

    def seed_history(self, samples: Mapping[str, Sequence[float]]) -> None:
        """Pre-load monitors with probe-phase bandwidth samples."""
        for path, series in samples.items():
            self.monitors[path].observe_bandwidth_many(series)

    # ------------------------------------------------------------------
    # dynamic stream membership
    # ------------------------------------------------------------------
    def add_stream(self, spec: StreamSpec) -> None:
        """Admit a new stream mid-run (forces a remap, Figure 7 line 2)."""
        if spec.name in self._names:
            raise ConfigurationError(
                f"stream {spec.name!r} already scheduled"
            )
        self.streams.append(spec)
        self._names.add(spec.name)
        self.mapping = None  # "previous scheduling vectors" are void

    def remove_stream(self, name: str) -> StreamSpec:
        """Terminate a stream mid-run (forces a remap)."""
        for i, spec in enumerate(self.streams):
            if spec.name == name:
                del self.streams[i]
                self._names.discard(name)
                self.mapping = None
                return spec
        raise ConfigurationError(f"unknown stream {name!r}")

    # ------------------------------------------------------------------
    # path quarantine (runtime fault tolerance)
    # ------------------------------------------------------------------
    def set_quarantine(self, paths) -> None:
        """Exclude ``paths`` from the mapping until lifted (forces a remap).

        The health layer (:class:`repro.robustness.health.HealthTracker`)
        calls this when paths fail or recover.  Quarantined paths receive
        no requests at all — neither guaranteed reservations, nor rule-2
        overflow, nor elastic best-effort — so recovery probing traffic
        is isolated from application traffic.  Quarantining *every* path
        falls back to mapping over the full set (there is nothing left to
        route around).
        """
        q = frozenset(paths) & set(self.path_names)
        if q != self.quarantined:
            self.quarantined = q
            self.mapping = None  # "previous scheduling vectors" are void
            if self._obs.enabled:
                self._obs.metrics.counter("scheduler.quarantine_changes").inc()
                self._obs.metrics.gauge("scheduler.quarantined_paths").set(
                    len(q)
                )
                self._obs.trace.emit(
                    self._clock(),
                    Category.SCHEDULER,
                    "quarantine",
                    paths=sorted(q),
                    usable=self.usable_paths,
                )

    @property
    def usable_paths(self) -> list[str]:
        """Paths the mapping may use (all of them when all are quarantined)."""
        usable = [p for p in self.path_names if p not in self.quarantined]
        return usable or list(self.path_names)

    # ------------------------------------------------------------------
    # mapping maintenance (Figure 7, lines 1-11)
    # ------------------------------------------------------------------
    @property
    def has_history(self) -> bool:
        """Whether every path has enough samples for statistical mapping."""
        return all(
            len(m.bandwidth) >= self.min_history for m in self.monitors.values()
        )

    def _needs_remap(self) -> bool:
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("pgos.remap_check"):
                return self._needs_remap_inner()
        return self._needs_remap_inner()

    def _needs_remap_inner(self) -> bool:
        if self._obs.enabled:
            self._obs.metrics.counter("scheduler.remap_checks").inc()
        if self.mapping is None:
            return True
        return any(m.cdf_changed_significantly() for m in self.monitors.values())

    def maybe_remap(self) -> Schedule:
        """Remap if the trigger fires; return the current schedule.

        The packet-level session calls this at each window boundary
        (Figure 7, lines 1-11).
        """
        if self._needs_remap():
            self.remap()
        return self.schedule

    @property
    def schedule(self) -> Optional[Schedule]:
        """V_P / V_S vectors of the installed mapping (``None`` without one).

        Compiled when first asked for and kept until another mapping is
        installed: only the packet fast path reads the vectors, so
        interval-mode runs never build them.  Every membership or
        quarantine change voids the mapping, hence the current
        precedence and usable paths are those of the remap that
        installed it.
        """
        mapping = self.mapping
        if mapping is None:
            return None
        if self._compiled is None or self._compiled[0] is not mapping:
            self._compiled = (
                mapping,
                mapping.compile(
                    stream_order=self.stream_precedence(),
                    path_order=self.usable_paths,
                ),
            )
        return self._compiled[1]

    def path_qos(self, paths: Sequence[str]) -> dict[str, PathQoSEstimate]:
        """Monitored RTT/loss levels of ``paths``, as the mapping step
        holds them against a stream's ceilings."""
        qos = {}
        for p in paths:
            monitor = self.monitors[p]
            qos[p] = PathQoSEstimate(
                rtt_ms=monitor.rtt_ms.predict() if monitor.rtt_ms.ready else None,
                loss_rate=(
                    monitor.loss_rate.predict()
                    if monitor.loss_rate.ready
                    else None
                ),
            )
        return qos

    def offer_mapping(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        qos: Mapping[str, PathQoSEstimate],
        mapping: ResourceMapping,
    ) -> None:
        """Hand over a mapping just solved for ``(specs, cdfs, qos)``.

        Admission control solves, one call before the remap, the very
        problem the remap is about to solve.  The next :meth:`remap`
        installs ``mapping`` instead of solving again if — and only if —
        it would pass :func:`compute_mapping` these same spec objects in
        this order, these same CDF snapshot objects for the same usable
        paths, and equal ``qos``; otherwise the offer is dropped.  One
        slot, emptied by the next remap either way.
        """
        self._offer = _SolvedMapping(specs, cdfs, qos, mapping)

    def remap(self) -> ResourceMapping:
        """Recompute the resource mapping from current CDFs.

        Raises :class:`AdmissionError` if no feasible mapping exists *and*
        no previous mapping can be kept.
        """
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("pgos.remap"):
                return self._remap_inner()
        return self._remap_inner()

    def _remap_inner(self) -> ResourceMapping:
        usable = self.usable_paths
        cdfs = {p: self.monitors[p].cdf() for p in usable}
        qos = self.path_qos(usable)
        offer, self._offer = self._offer, None
        self.degraded = False
        try:
            if self.split_strategy == "even":
                mapping = even_split_mapping(self.streams, cdfs, self.tw)
            elif offer is not None and offer.answers(
                self.streams, cdfs, qos, self.tw
            ):
                mapping = offer.mapping
            else:
                mapping = compute_mapping(
                    self.streams, cdfs, self.tw, qos=qos, fold=self.fold
                )
        except AdmissionError:
            if self.mapping is not None:
                # Keep serving with the stale mapping rather than dropping
                # streams mid-flight; the upcall semantics apply at
                # admission time (see AdmissionController).
                self.degraded = True
                return self.mapping
            # No prior mapping to fall back on: serve best-effort — every
            # guaranteed stream gets the strongest placement available,
            # and `mapping.achieved_probability` reports the shortfall
            # (what the admission upcall would hand the application).
            self.degraded = True
            mapping = best_effort_mapping(self.streams, cdfs, self.tw, qos=qos)
        self.mapping = mapping
        for monitor in self.monitors.values():
            monitor.mark_remapped()
        self.remap_count += 1
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.counter("scheduler.remaps").inc()
            metrics.gauge("scheduler.degraded").set(1.0 if self.degraded else 0.0)
            obs = self._obs
            self._obs.trace.emit(
                self._clock(),
                Category.SCHEDULER,
                "remap",
                # remap_count is monotone per scheduler: the stable ID
                # other layers join remap-scoped events on.
                remap_id=self.remap_count,
                degraded=self.degraded,
                strategy=self.split_strategy,
                paths=list(usable),
                quarantined=sorted(self.quarantined),
                rates_mbps={
                    s: dict(rates)
                    for s, rates in mapping.rates_mbps.items()
                },
                stream_ids={
                    s: obs.stream_id(s) for s in mapping.rates_mbps
                },
            )
        return mapping

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the scheduler's mutable state.

        Dict insertion order is preserved deliberately: the mapping's
        per-stream rate dicts are summed in iteration order on the hot
        path, so a restored mapping must iterate identically for float
        sums to stay bit-identical.  The streams are written as names,
        in scheduler order: their specs are the service's, which
        :meth:`load_state_dict` is handed.  Neither the compiled
        :class:`Schedule` (a pure function of the mapping, the stream
        precedence and the usable path order, see :attr:`schedule`) nor
        the mapping's packet table (a pure function of its rates and the
        streams' packet sizes) is written, save an even split's table,
        which its rates do not determine.
        """
        mapping = self.mapping
        mapping_state = None
        if mapping is not None:
            mapping_state = {
                "rates_mbps": {
                    s: {p: float(v) for p, v in d.items()}
                    for s, d in mapping.rates_mbps.items()
                },
                "achieved_probability": {
                    s: float(v)
                    for s, v in mapping.achieved_probability.items()
                },
                "achieved_violation_rate": {
                    s: float(v)
                    for s, v in mapping.achieved_violation_rate.items()
                },
                "tw": float(mapping.tw),
                "packets": mapping.explicit_packets,
            }
        return {
            "streams": [s.name for s in self.streams],
            "monitors": {
                p: self.monitors[p].state_dict() for p in self.path_names
            },
            "mapping": mapping_state,
            "remap_count": self.remap_count,
            "degraded": self.degraded,
            "quarantined": sorted(self.quarantined),
        }

    def load_state_dict(
        self, state: dict, specs: Iterable[StreamSpec]
    ) -> None:
        """Restore a :meth:`state_dict` snapshot.

        :meth:`setup` must already have been called with the same path
        set and window configuration (the snapshot holds only mutable
        state).  ``specs`` are the spec objects the streams are served
        with (a service's serving specs, in any order): the scheduler
        takes those objects, not copies, so an admission offer solved on
        them is adopted at once.
        """
        by_name = {spec.name: spec for spec in specs}
        missing = [n for n in state["streams"] if n not in by_name]
        if missing:
            raise CheckpointError(
                f"checkpoint schedules streams with no spec: {missing}"
            )
        self.streams = [by_name[n] for n in state["streams"]]
        self._names = set(state["streams"])
        for path, monitor_state in state["monitors"].items():
            monitor = self.monitors.get(path)
            if monitor is None:
                raise ConfigurationError(
                    f"checkpoint references unknown path {path!r}"
                )
            monitor.load_state_dict(monitor_state)
        self.quarantined = frozenset(state["quarantined"])
        self.remap_count = int(state["remap_count"])
        self.degraded = bool(state["degraded"])
        self._offer = None
        mapping_state = state["mapping"]
        if mapping_state is None:
            self.mapping = None
            return
        packets = mapping_state["packets"]  # an even split's only
        if packets is not None:
            packets = {
                s: {p: int(c) for p, c in d.items()}
                for s, d in packets.items()
            }
        self.mapping = ResourceMapping(
            rates_mbps={
                s: {p: float(v) for p, v in d.items()}
                for s, d in mapping_state["rates_mbps"].items()
            },
            achieved_probability={
                s: float(v)
                for s, v in mapping_state["achieved_probability"].items()
            },
            achieved_violation_rate={
                s: float(v)
                for s, v in mapping_state["achieved_violation_rate"].items()
            },
            tw=float(mapping_state["tw"]),
            # Any other table is built from the rates on first read, as
            # in the run that saved it.
            packets=packets,
            specs=self.streams if packets is None else None,
        )

    def stream_precedence(self) -> list[str]:
        """Streams ordered most-important-first (for deadline tie-breaks)."""
        def key(s: StreamSpec):
            p = s.probability if s.probability is not None else -1.0
            return (-p, -(s.required_mbps or 0.0), s.name)

        return [s.name for s in sorted(self.streams, key=key)]

    # ------------------------------------------------------------------
    # interval-mode allocation (fluid rendering of the fast path)
    # ------------------------------------------------------------------
    def allocate(
        self, interval: int, backlog_mbps: Mapping[str, Optional[float]]
    ) -> dict[str, list[PathShareRequest]]:
        prof = self._obs.prof
        if prof.enabled:
            with prof.span("pgos.allocate"):
                return self._allocate_inner(interval, backlog_mbps)
        return self._allocate_inner(interval, backlog_mbps)

    def _allocate_inner(
        self, interval: int, backlog_mbps: Mapping[str, Optional[float]]
    ) -> dict[str, list[PathShareRequest]]:
        if not self.has_history:
            return self._fallback_requests(backlog_mbps)
        if self._needs_remap():
            self.remap()
        mapping = self.mapping
        usable = self.usable_paths
        requests: dict[str, list[PathShareRequest]] = {
            p: [] for p in self.path_names
        }
        for spec in self.streams:
            rates = mapping.rates_mbps.get(spec.name, {})
            mapped_total = sum(rates.values())
            backlog = backlog_mbps.get(spec.name)
            guaranteed = spec.guaranteed or spec.max_violation_rate is not None
            for path in usable:
                mapped_here = rates.get(path, 0.0)
                if guaranteed and mapped_here > 0:
                    # Rule 1: packets scheduled on this path.
                    demand = (
                        None
                        if backlog is None
                        else min(backlog, mapped_here)
                    )
                    requests[path].append(
                        PathShareRequest(
                            stream=spec.name,
                            demand_mbps=demand,
                            weight=mapped_here,
                            level=LEVEL_SCHEDULED_HERE,
                        )
                    )
                elif guaranteed and mapped_total > 0:
                    # Rule 2: overflow of a stream scheduled elsewhere —
                    # only the excess beyond its reservation spills here.
                    excess = (
                        None
                        if backlog is None
                        else max(backlog - mapped_total, 0.0)
                    )
                    if excess is None or excess > 1e-9:
                        requests[path].append(
                            PathShareRequest(
                                stream=spec.name,
                                demand_mbps=excess,
                                weight=max(mapped_total, 1e-6),
                                level=LEVEL_SCHEDULED_ELSEWHERE,
                            )
                        )
            if spec.elastic:
                # Rule 3: unscheduled (best-effort) packets fill leftovers.
                for path in usable:
                    weight = max(rates.get(path, 0.0), 0.0)
                    if weight <= 0:
                        weight = spec.weight / len(usable)
                    requests[path].append(
                        PathShareRequest(
                            stream=spec.name,
                            demand_mbps=backlog_mbps.get(spec.name),
                            weight=weight,
                            level=LEVEL_UNSCHEDULED,
                        )
                    )
        return requests

    def _fallback_requests(
        self, backlog_mbps: Mapping[str, Optional[float]]
    ) -> dict[str, list[PathShareRequest]]:
        """Even weighted split before monitoring history exists."""
        requests: dict[str, list[PathShareRequest]] = {
            p: [] for p in self.path_names
        }
        usable = self.usable_paths
        n = len(usable)
        for spec in self.streams:
            for path in usable:
                backlog = backlog_mbps.get(spec.name)
                requests[path].append(
                    PathShareRequest(
                        stream=spec.name,
                        demand_mbps=None if backlog is None else backlog / n,
                        weight=spec.weight,
                        level=LEVEL_UNSCHEDULED if spec.elastic else 0,
                    )
                )
        return requests


# ----------------------------------------------------------------------
# packet-accurate fast path (Figure 7, lines 12-17)
# ----------------------------------------------------------------------
class DispatchResult:
    """Statistics from one window of packet dispatch."""

    def __init__(self) -> None:
        #: Packets sent per stream and path, in first-send order.
        self.sent: dict[str, dict[str, int]] = {}
        self.blocked_events = 0
        self.unsent = 0
        #: Packets sent through Table 1 rule 2 (scheduled on another path
        #: but carried here as overflow).
        self.rule2_sent = 0
        #: Best-effort packets sent through rule 3.
        self.unscheduled_sent = 0

    def sent_total(self, stream: str) -> int:
        return sum(self.sent.get(stream, {}).values())


def dispatch_window(
    schedule: Schedule,
    services: Mapping[str, PathService],
    scheduled_queues: Mapping[str, PacketQueue],
    unscheduled_queues: Mapping[str, PacketQueue] | None = None,
    stream_precedence: Sequence[str] | None = None,
) -> DispatchResult:
    """Dispatch one scheduling window of packets per Figure 7 and Table 1.

    Each path's budget, clock and backoff state are read once.  A pick is
    checked against its path's budget before it is popped, so a packet
    that does not fit stays at its queue's head; the path is then blocked
    for the rest of the window (Figure 7's GetNextFreePath).  At the end,
    every path is settled once per stream it carried and then refused
    once if it blocked, in block order.

    Parameters
    ----------
    schedule:
        Compiled V_P / V_S vectors with per-(stream, path) quotas.
    services:
        Path services keyed by path name; their interval budgets must have
        been set by the caller (``begin_interval``).
    scheduled_queues:
        Deadline queues of the streams appearing in the schedule.
    unscheduled_queues:
        Queues of best-effort streams outside the mapping (Table 1 rule 3).
    stream_precedence:
        Tie-break order among equal deadlines (highest window-constraint
        first); defaults to schedule order.

    Returns
    -------
    DispatchResult
        Per-(stream, path) packet counts plus blocking statistics.
    """
    unscheduled_queues = unscheduled_queues or {}
    precedence = list(
        stream_precedence
        if stream_precedence is not None
        else schedule.stream_path_packets
    )
    rank = {s: i for i, s in enumerate(precedence)}
    for s in list(scheduled_queues) + list(unscheduled_queues):
        if s not in rank:
            rank[s] = len(rank)

    # Remaining per-window quota of each (stream, path) sub-stream.
    quota = {
        s: dict(paths) for s, paths in schedule.stream_path_packets.items()
    }
    # Rule 2 scans the quota table; only rows with a queue can win.
    rule2_rows = [
        (scheduled_queues[s], rank[s], paths)
        for s, paths in quota.items()
        if s in scheduled_queues
    ]
    rule3_queues = [(q, rank[s]) for s, q in unscheduled_queues.items()]
    # V_S round-robin cursors: [vector, next position].
    cursors = {p: [list(vs), 0] for p, vs in schedule.vs.items()}
    budget = {p: svc.remaining_budget for p, svc in services.items()}
    clock = {p: svc.now for p, svc in services.items()}
    blocked = {p for p, svc in services.items() if svc.blocked}
    blocked.update(p for p in schedule.vp if p not in services)
    # Once every scheduled queue is drained, rules 1 and 2 are skipped
    # outright (otherwise each best-effort packet would rescan V_S).
    scheduled_pending = sum(len(q) for q in scheduled_queues.values())
    quota_pending = schedule.total_packets
    #: (stream, path) -> [packets, deadline misses, packet size], in
    #: first-send order.
    tally: dict[tuple[str, str], list[int]] = {}
    #: (path, stream, packet size) of each block, in block order.
    refusals: list[tuple[str, str, int]] = []
    sends = rule2_sent = unscheduled_sent = 0

    def visits():
        """Paths in dispatch order: V_P once, then work-conserving rounds.

        After walking V_P, any still-unblocked capacity carries leftovers
        (work conservation: rules 2/3 continue while free paths exist);
        the rounds stop after one in which no path sent.
        """
        for path in schedule.vp:
            if path in blocked:
                continue
            if budget[path] <= 0:
                blocked.add(path)
                continue
            yield path
        order = list(services)
        while True:
            before = sends
            for path in order:
                if path not in blocked and budget[path] > 0:
                    yield path
            if sends == before:
                return

    for path in visits():
        # One packet for ``path`` per Table 1.
        queue = row = None
        if scheduled_pending > 0 and quota_pending > 0:
            # Rule 1: packets scheduled on the current path, via V_S.
            cursor = cursors.get(path)
            if cursor is not None:
                vector, pos = cursor
                n = len(vector)
                for _ in range(n):
                    stream = vector[pos]
                    pos = (pos + 1) % n
                    q = scheduled_queues.get(stream)
                    if q and quota.get(stream, {}).get(path, 0) > 0:
                        queue, row, quota_path = q, quota[stream], path
                        break
                cursor[1] = pos
            if queue is None:
                # Rule 2: earliest-deadline packet scheduled on some other
                # path (ties: highest window constraint first, via rank);
                # a stream offers its first other path with quota left.
                best_deadline = best_rank = None
                for q, r, paths in rule2_rows:
                    if not q:
                        continue
                    for other, remaining in paths.items():
                        if other == path or remaining <= 0:
                            continue
                        d = q[0]
                        if (
                            queue is None
                            or d < best_deadline
                            or (d == best_deadline and r < best_rank)
                        ):
                            queue, row, quota_path = q, paths, other
                            best_deadline, best_rank = d, r
                        break
        if queue is None:
            # Rule 3: earliest-deadline unscheduled (best-effort) packet.
            best_deadline = best_rank = None
            for q, r in rule3_queues:
                if not q:
                    continue
                d = q[0]
                if (
                    queue is None
                    or d < best_deadline
                    or (d == best_deadline and r < best_rank)
                ):
                    queue, best_deadline, best_rank = q, d, r
            if queue is None:
                continue
        size = queue.size
        left = budget[path]
        if size > left:
            # Blocked path: the packet stays queued and the fast path
            # switches away (Figure 7's GetNextFreePath); the service's
            # backoff starts at the refusal below.
            blocked.add(path)
            refusals.append((path, queue.stream, size))
            continue
        budget[path] = left - size
        deadline = queue.popleft()
        sends += 1
        if row is not None:
            row[quota_path] -= 1
            scheduled_pending -= 1
            quota_pending -= 1
            if quota_path != path:
                rule2_sent += 1
        else:
            unscheduled_sent += 1
        key = (queue.stream, path)
        counts = tally.get(key)
        if counts is None:
            counts = tally[key] = [0, 0, size]
        counts[0] += 1
        if clock[path] > deadline:
            counts[1] += 1

    # Settle each path before refusing on it: a window that sent and
    # then blocked resets the backoff first, then charges it.
    result = DispatchResult()
    for (stream, path), (packets, misses, size) in tally.items():
        result.sent.setdefault(stream, {})[path] = packets
        services[path].settle(stream, size, packets, misses, budget[path])
    for path, stream, size in refusals:
        services[path].refuse(stream, size)
    result.blocked_events = len(refusals)
    result.rule2_sent = rule2_sent
    result.unscheduled_sent = unscheduled_sent
    result.unsent = sum(len(q) for q in scheduled_queues.values()) + sum(
        len(q) for q in unscheduled_queues.values()
    )
    return result


def make_packet_queue(
    stream: str,
    count: int,
    tw: float,
    packet_size: int,
    created_at: float = 0.0,
) -> PacketQueue:
    """Build one window's packet queue with spread virtual deadlines."""
    from repro.core.vectors import virtual_deadlines

    return PacketQueue(
        stream,
        packet_size,
        (created_at + virtual_deadlines(count, tw)).tolist(),
    )
