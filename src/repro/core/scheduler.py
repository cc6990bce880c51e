"""Scheduler interface and the per-path bandwidth-sharing model.

Every algorithm in the evaluation — PGOS, WFQ, MSFQ, OptSched — implements
:class:`SchedulerBase`: per measurement interval it emits, for each overlay
path, a list of :class:`PathShareRequest` entries (stream, demand, weight,
priority level).  :func:`deliver_interval`, the one interval step the
figures and the scalar test oracle run, then resolves contention on each
path with :func:`water_fill`:

* strict priority across levels (level 0 served before level 1, ...);
* within a level, weighted max-min fairness (share proportional to weight,
  capped at demand, surplus redistributed).

This models the two service disciplines that matter in the paper: fair
queuing (weights, one level) and PGOS's deadline-ordered dispatch, whose
scheduling vectors serve guaranteed packets ahead of unscheduled
best-effort packets (Table 1 precedence ⇒ strict priority between the
guaranteed and the elastic portions of the schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.core.spec import StreamSpec
from repro.obs.context import NULL_OBS, Observability
from repro.units import bytes_in_interval, mbps_from_bytes


@dataclass(frozen=True)
class PathShareRequest:
    """One stream's claim on one path for the next interval.

    Attributes
    ----------
    stream:
        Stream name.
    demand_mbps:
        Rate the stream wants on this path this interval (``None`` =
        unbounded, for elastic sources).
    weight:
        Fair-share weight within the priority level.
    level:
        Strict priority level; lower is served first.
    """

    stream: str
    demand_mbps: Optional[float]
    weight: float
    level: int = 0

    def __post_init__(self):
        if self.demand_mbps is not None and self.demand_mbps < 0:
            raise ConfigurationError(
                f"demand must be >= 0, got {self.demand_mbps}"
            )
        if self.weight <= 0:
            raise ConfigurationError(f"weight must be > 0, got {self.weight}")
        if self.level < 0:
            raise ConfigurationError(f"level must be >= 0, got {self.level}")


def water_fill(
    requests: Sequence[PathShareRequest], capacity_mbps: float
) -> dict[str, float]:
    """Resolve one path's contention: priority levels, then weighted max-min.

    Returns Mbps granted per stream.  Work-conserving: all capacity is
    handed out as long as unbounded or unmet demand remains.
    """
    if capacity_mbps < 0:
        raise ConfigurationError(
            f"capacity must be >= 0, got {capacity_mbps}"
        )
    granted: dict[str, float] = {}
    for request in requests:
        if request.stream in granted:
            raise ConfigurationError(
                f"duplicate request for stream {request.stream!r} on one path"
            )
        granted[request.stream] = 0.0

    remaining = capacity_mbps
    for level in sorted({r.level for r in requests}):
        if remaining <= 1e-12:
            break
        active = [r for r in requests if r.level == level]
        # Iterative weighted max-min: satisfy capped streams, redistribute.
        pending = {r.stream: r for r in active}
        while pending and remaining > 1e-12:
            total_weight = sum(r.weight for r in pending.values())
            # Find streams whose demand is met at the current fair share.
            capped = []
            for r in pending.values():
                fair = remaining * r.weight / total_weight
                if r.demand_mbps is not None and r.demand_mbps <= fair + 1e-12:
                    capped.append(r)
            if not capped:
                # No one capped: hand out proportional shares and finish.
                for r in pending.values():
                    granted[r.stream] += remaining * r.weight / total_weight
                remaining = 0.0
                break
            for r in capped:
                granted[r.stream] += r.demand_mbps
                remaining -= r.demand_mbps
                del pending[r.stream]
            remaining = max(remaining, 0.0)
    return granted


#: Sender-buffer bound per CBR stream, in seconds of its demand.
BUFFER_SECONDS = 2.0


def deliver_interval(
    scheduler: SchedulerBase,
    k: int,
    specs: Sequence[StreamSpec],
    path_names: Sequence[str],
    capacity_mbps: Callable[[str], float],
    dt: float,
    backlog_bytes: dict[str, float],
    dropped_bytes: dict[str, float],
) -> dict[str, dict[str, float]]:
    """One interval of the paper's delivery loop, on plain floats.

    1. Each CBR stream's arrivals accrue into ``backlog_bytes``, bounded
       at :data:`BUFFER_SECONDS` of its demand; the overflow is added to
       ``dropped_bytes``.
    2. One ``scheduler.allocate(k, backlog_mbps)`` (past information only).
    3. Each path, in ``path_names`` order, water-fills its requests
       against ``capacity_mbps(path)``.
    4. A CBR stream's grant is capped at, and drains, its backlog.

    Returns ``delivered[stream][path]`` in Mbps for every positive grant,
    each stream's paths in ``path_names`` order.  A grant to a stream
    outside ``specs`` raises :class:`ConfigurationError`.
    """
    backlog_mbps: dict[str, Optional[float]] = {}
    by_name: dict[str, StreamSpec] = {}
    for s in specs:
        name = s.name
        by_name[name] = s
        if s.demand_mbps is None:
            backlog_mbps[name] = None
            continue
        queued = backlog_bytes[name] + bytes_in_interval(s.demand_mbps, dt)
        limit = bytes_in_interval(s.demand_mbps, BUFFER_SECONDS)
        if queued > limit:
            dropped_bytes[name] += queued - limit
            queued = limit
        backlog_bytes[name] = queued
        backlog_mbps[name] = mbps_from_bytes(queued, dt)

    requests = scheduler.allocate(k, backlog_mbps)

    delivered: dict[str, dict[str, float]] = {}
    for p in path_names:
        path_requests = requests.get(p)
        if not path_requests:
            continue
        granted = water_fill(path_requests, capacity_mbps(p))
        for name, mbps in granted.items():
            if mbps <= 0:
                continue
            spec = by_name.get(name)
            if spec is None:
                raise ConfigurationError(
                    f"scheduler requested unknown stream {name!r}"
                )
            nbytes = bytes_in_interval(mbps, dt)
            if spec.demand_mbps is not None:
                # Cannot deliver more than is queued.
                nbytes = min(nbytes, backlog_bytes[name])
                backlog_bytes[name] -= nbytes
            delivered.setdefault(name, {})[p] = mbps_from_bytes(nbytes, dt)
    return delivered


class SchedulerBase:
    """Interface implemented by PGOS and every baseline.

    Lifecycle::

        scheduler.setup(streams, path_names, dt, tw)
        for k in range(n_intervals):
            deliver_interval(scheduler, k, ...)      # allocate(k, backlog):
                                                     # past info only
            scheduler.observe(k, measured_available) # feedback
    """

    #: Display name used in figures/reports.
    name: str = "scheduler"

    #: Per-run observability context; the disabled default costs one
    #: attribute lookup at each instrumentation site.
    _obs: Observability = NULL_OBS
    _clock: Callable[[], float] = staticmethod(lambda: 0.0)

    def bind_observability(
        self,
        obs: Observability,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Attach a per-run observability context and virtual clock.

        The base implementation just stores them; schedulers with
        internal state (PGOS's per-path monitors) override to propagate.
        """
        self._obs = obs
        if clock is not None:
            self._clock = clock

    def setup(
        self,
        streams: Sequence[StreamSpec],
        path_names: Sequence[str],
        dt: float,
        tw: float,
    ) -> None:
        """Bind the scheduler to an experiment's streams and paths."""
        if not streams:
            raise ConfigurationError("at least one stream is required")
        if not path_names:
            raise ConfigurationError("at least one path is required")
        if dt <= 0 or tw <= 0:
            raise ConfigurationError(
                f"dt and tw must be positive, got {dt}, {tw}"
            )
        names = [s.name for s in streams]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate stream names: {names}")
        self.streams: list[StreamSpec] = list(streams)
        self.path_names: list[str] = list(path_names)
        self.dt = dt
        self.tw = tw

    def allocate(
        self, interval: int, backlog_mbps: Mapping[str, Optional[float]]
    ) -> dict[str, list[PathShareRequest]]:
        """Requests per path for the coming interval (past info only).

        ``backlog_mbps[stream]`` is the rate that would fully drain the
        stream's queued bytes (arrivals included) within this interval;
        ``None`` means the stream is an unbounded (elastic) source.
        """
        raise NotImplementedError

    def observe(
        self,
        interval: int,
        available_mbps: Mapping[str, float],
        rtt_ms: Optional[Mapping[str, float]] = None,
        loss_rate: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Feedback: measured path metrics for ``interval``.

        ``available_mbps`` is always supplied; RTT and loss-rate maps are
        optional (monitoring may not cover them on every deployment).
        """
        # Default: stateless scheduler, nothing to learn.

    def stream(self, name: str) -> StreamSpec:
        """Look up one of the configured streams."""
        for s in self.streams:
            if s.name == name:
                return s
        raise ConfigurationError(f"unknown stream {name!r}")
