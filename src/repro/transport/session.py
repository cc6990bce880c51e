"""A packet-level IQ-Paths streaming session on the event engine.

This is the end-to-end middleware loop at packet granularity — the
"slow-motion" counterpart of the fluid experiment driver used for the
long throughput figures:

* per scheduling window, application producers enqueue their packets with
  spread virtual deadlines (CBR streams enqueue ``x_i`` packets; elastic
  producers keep their queue topped up);
* the monitoring stack observes each path's available bandwidth and the
  PGOS mapping/vector machinery recompiles when the stream set or a CDF
  changes;
* the Figure-7 fast path dispatches the window's packets to the per-path
  services, whose byte budgets come from the realized availability.

``tests/integration/test_packet_session.py`` checks this packet-level
session agrees with the fluid driver on the guarantee attainment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.pgos import PGOSScheduler, dispatch_window, make_packet_queue
from repro.core.spec import StreamSpec
from repro.network.emulab import TestbedRealization
from repro.network.faults import FaultCampaign
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.robustness.health import HealthTracker, HealthTransition
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, start
from repro.transport.packet import PacketQueue
from repro.transport.service import PathService
from repro.units import mbps_from_bytes

#: Windows of nominal-rate packets an elastic producer keeps queued.
ELASTIC_BACKLOG_WINDOWS = 2


@dataclass
class SessionResult:
    """Per-window packet accounting from one packet-level session."""

    tw: float
    stream_names: list[str]
    path_names: list[str]
    #: packets sent per window: stream -> path -> list (one entry/window)
    sent: dict[str, dict[str, list[int]]]
    #: packets that missed their virtual deadline, per stream
    deadline_misses: dict[str, int] = field(default_factory=dict)
    blocked_events: int = 0
    remap_count: int = 0
    #: health transitions fired during the session (empty without health)
    health_transitions: list[HealthTransition] = field(default_factory=list)
    #: per window, whether each path was quarantined when it was dispatched
    quarantine_series: dict[str, list[bool]] = field(default_factory=dict)

    @property
    def n_windows(self) -> int:
        for per_path in self.sent.values():
            for series in per_path.values():
                return len(series)
        return 0

    def throughput_mbps(self, stream: str, packet_size: int) -> np.ndarray:
        """Per-window throughput series of one stream (all paths)."""
        per_path = self.sent.get(stream)
        if not per_path:
            raise ConfigurationError(f"unknown stream {stream!r}")
        total = np.zeros(self.n_windows)
        for series in per_path.values():
            total += np.asarray(series, dtype=float)
        return np.array(
            [mbps_from_bytes(n * packet_size, self.tw) for n in total]
        )

    def attainment(self, spec: StreamSpec) -> float:
        """Fraction of windows in which the stream met its requirement."""
        if spec.required_mbps is None:
            raise ConfigurationError(f"{spec.name!r} has no requirement")
        needed = spec.packets_in_window(self.tw)
        series = self.throughput_mbps(spec.name, spec.packet_size)
        per_window = series * self.tw * 1e6 / 8.0 / spec.packet_size
        return float(np.mean(per_window >= needed - 0.5))


def run_packet_session(
    realization: TestbedRealization,
    streams: Sequence[StreamSpec],
    scheduler: Optional[PGOSScheduler] = None,
    tw: float = 1.0,
    warmup_windows: int = 30,
    campaign: Optional[FaultCampaign] = None,
    health: Optional[HealthTracker] = None,
    obs: Optional[Observability] = None,
) -> SessionResult:
    """Run a packet-accurate PGOS session over a testbed realization.

    Parameters
    ----------
    realization:
        Availability series; resampled to one sample per scheduling
        window (``tw`` must be an integer multiple of the realization's
        ``dt``).
    streams:
        Stream specifications; elastic streams keep roughly
        ``ELASTIC_BACKLOG_WINDOWS`` windows of their nominal rate queued.
    scheduler:
        A PGOS scheduler (fresh one by default).  Baselines are not
        supported here — this is the packet fast path, which only PGOS
        has.
    warmup_windows:
        Windows of monitoring before traffic starts.
    campaign:
        Optional mid-run fault schedule (session time ``t = 0`` at the
        first traffic window; faults are sampled at each window's
        midpoint).  Active faults scale the window's byte budgets and
        blackouts drop the affected path's monitoring observation.
    health:
        Optional :class:`HealthTracker`; auto-created when a
        ``campaign`` is given.  Quarantined paths get a zero byte budget
        for the window *and* are excluded from the PGOS mapping, so no
        guaranteed packet rides a failed path until its backoff-gated
        probe confirms recovery.
    obs:
        Optional :class:`repro.obs.Observability` context.  When enabled,
        the engine, path services, scheduler, monitors, and health layer
        all share it, and the session emits one ``transport.window``
        trace event per scheduling window (budgets, quarantine, packet
        counts, rule-2 overflow, drops).
    """
    obs = obs if obs is not None else NULL_OBS
    dt = realization.dt
    ratio = tw / dt
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ConfigurationError(
            f"tw {tw} must be an integer multiple of dt {dt}"
        )
    scheduler = scheduler or PGOSScheduler()
    path_names = realization.path_names()
    if health is None and campaign is not None:
        health = HealthTracker(path_names)
    # Stable stream IDs (spec order) so trace events join across layers.
    obs.bind_streams({s.name: i for i, s in enumerate(streams, start=1)})
    if health is not None:
        health.bind_observability(obs)
    # Window-granularity availability: mean over each window's intervals.
    avail = {}
    for p in path_names:
        series = realization.available[p].available_mbps
        n = (len(series) // k) * k
        avail[p] = series[:n].reshape(-1, k).mean(axis=1)
    n_windows_total = len(next(iter(avail.values())))
    if warmup_windows >= n_windows_total:
        raise ConfigurationError(
            f"warmup {warmup_windows} >= total windows {n_windows_total}"
        )
    scheduler.setup(streams, path_names, dt=tw, tw=tw)
    scheduler.seed_history(
        {p: avail[p][:warmup_windows] for p in path_names}
    )

    sim = Simulator(obs=obs)
    scheduler.bind_observability(obs, clock=lambda: sim.now)
    services = {p: PathService(p, obs=obs) for p in path_names}
    guaranteed = [s for s in streams if s.guaranteed or s.max_violation_rate]
    elastic = [s for s in streams if s.elastic and s not in guaranteed]
    queues = {s.name: PacketQueue(s.name, s.packet_size) for s in guaranteed}
    unscheduled = {
        s.name: PacketQueue(s.name, s.packet_size) for s in elastic
    }

    result = SessionResult(
        tw=tw,
        stream_names=[s.name for s in streams],
        path_names=list(path_names),
        sent={
            s.name: {p: [] for p in path_names} for s in streams
        },
        deadline_misses={s.name: 0 for s in streams},
        quarantine_series={p: [] for p in path_names},
    )

    n_windows = n_windows_total - warmup_windows

    # Packet counts land in an int64 cube and quarantine flags in a bool
    # matrix, unpacked to the result's lists after the run.
    stream_index = {s.name: i for i, s in enumerate(streams)}
    path_index = {p: j for j, p in enumerate(path_names)}
    sent_cube = np.zeros(
        (len(streams), len(path_names), n_windows), dtype=np.int64
    )
    quarantine_matrix = np.zeros((len(path_names), n_windows), dtype=bool)

    def window_avail(p: str, w: int) -> float:
        """Effective availability for traffic window ``w`` (session time)."""
        value = float(avail[p][warmup_windows + w])
        if campaign is not None:
            value *= campaign.availability_multiplier(p, (w + 0.5) * tw)
        return value

    def produce(window_idx: int) -> None:
        """Enqueue one window's packet deadlines for every stream."""
        now = sim.now
        for spec in guaranteed:
            count = spec.packets_in_window(tw)
            queues[spec.name].extend(
                make_packet_queue(
                    spec.name, count, tw, spec.packet_size, created_at=now
                )
            )
        for spec in elastic:
            target = (
                spec.packets_in_window(tw) * ELASTIC_BACKLOG_WINDOWS
                if spec.nominal_mbps or spec.required_mbps
                else 0
            )
            missing = max(target - len(unscheduled[spec.name]), 0)
            if missing:
                unscheduled[spec.name].extend(
                    make_packet_queue(
                        spec.name,
                        missing,
                        tw,
                        spec.packet_size,
                        created_at=now,
                    )
                )

    def session():
        for w in range(n_windows):
            absolute = warmup_windows + w
            produce(w)
            quarantined = (
                health.quarantined() if health is not None else frozenset()
            )
            if health is not None:
                scheduler.set_quarantine(quarantined)
            schedule = scheduler.maybe_remap()
            # One availability draw per (path, window), shared by the
            # budget, observe, and health sites below.
            wa = {p: window_avail(p, w) for p in path_names}
            budgets = {p: wa[p] * 1e6 / 8.0 * tw for p in path_names}
            for p, service in services.items():
                # A quarantined path carries probe traffic only: zero byte
                # budget, so even work-conserving overflow avoids it.
                budget = 0.0 if p in quarantined else budgets[p]
                service.begin_interval(sim.now, budget)
                quarantine_matrix[path_index[p], w] = p in quarantined
            window_result = dispatch_window(
                schedule,
                services,
                queues,
                unscheduled,
                stream_precedence=scheduler.stream_precedence(),
            )
            result.blocked_events += window_result.blocked_events
            for name, per_path in window_result.sent.items():
                row = sent_cube[stream_index[name]]
                for p, count in per_path.items():
                    row[path_index[p], w] = count
            # Drop packets a full window stale (bounded buffers, matching
            # the fluid driver's 2-second bound); a drop is a miss.
            drops = 0
            for name, queue in list(queues.items()) + list(
                unscheduled.items()
            ):
                while queue and queue[0] < sim.now - tw:
                    queue.popleft()
                    result.deadline_misses[name] += 1
                    drops += 1
            if obs.enabled:
                metrics = obs.metrics
                metrics.counter("transport.windows").inc()
                metrics.counter("transport.rule2_overflow").inc(
                    window_result.rule2_sent
                )
                metrics.counter("transport.packets_dropped").inc(drops)
                metrics.counter("transport.blocked_events").inc(
                    window_result.blocked_events
                )
                obs.trace.emit(
                    sim.now,
                    Category.TRANSPORT,
                    "window",
                    window=w,
                    budgets_bytes={p: budgets[p] for p in path_names},
                    quarantined=sorted(quarantined),
                    sent={
                        s: dict(per_path)
                        for s, per_path in window_result.sent.items()
                    },
                    rule2_sent=window_result.rule2_sent,
                    unscheduled_sent=window_result.unscheduled_sent,
                    blocked_events=window_result.blocked_events,
                    unsent=window_result.unsent,
                    dropped=drops,
                )
                metrics.snapshot(sim.now)
            t_mid = (w + 0.5) * tw
            observed = [
                p
                for p in path_names
                if campaign is None or campaign.observed(p, t_mid)
            ]
            if observed:
                scheduler.observe(absolute, {p: wa[p] for p in observed})
            if health is not None:
                bandwidth = {
                    p: (wa[p] if p in observed else None)
                    for p in path_names
                }
                loss = {
                    p: (
                        campaign.extra_loss(p, t_mid)
                        if campaign is not None and p in observed
                        else 0.0
                    )
                    for p in path_names
                }
                result.health_transitions.extend(
                    health.update(w * tw, bandwidth, loss=loss)
                )
            yield Timeout(tw)

    start(sim, session(), name="pgos-session")
    sim.run()
    for s in streams:
        rows = sent_cube[stream_index[s.name]]
        for p in path_names:
            result.sent[s.name][p] = rows[path_index[p]].tolist()
    for p in path_names:
        result.quarantine_series[p] = quarantine_matrix[path_index[p]].tolist()
    # Packets delivered after their virtual deadline count as misses too.
    for service in services.values():
        for name, count in service.log.deadline_misses.items():
            result.deadline_misses[name] = (
                result.deadline_misses.get(name, 0) + count
            )
    result.remap_count = scheduler.remap_count
    return result
