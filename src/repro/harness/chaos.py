"""Chaos-campaign harness: measure fault tolerance, not just throughput.

A chaos campaign drives the full middleware
(:class:`repro.middleware.service.IQPathsService`) through a seeded
:class:`repro.network.faults.FaultCampaign` — link flapping, correlated
multi-path outages, monitor blackouts — and reports the robustness
metrics the throughput figures cannot show:

* **time to detect** — first health transition off ``HEALTHY`` on a
  faulted path, measured from the campaign's first fault onset;
* **time to recover** — all paths back to ``HEALTHY`` (probe-confirmed,
  backoff-gated), measured from the campaign's last fault end;
* **guarantee-violation seconds** — per guaranteed stream, how long its
  delivered rate sat below its requirement;
* **packets lost during remap** — shortfall volume (converted to
  packets) between fault onset and recovery, i.e. what the disruption
  cost while the overlay was re-routing.

Campaigns are seeded and the whole pipeline is deterministic: the same
seed reproduces the same report, which is what makes the chaos suite a
regression test rather than a dice roll.

The harness always runs with observability on: the report's
time-to-detect/recover figures are computed *from the trace* (the
``health.transition`` events every run emits), not from private
bookkeeping, so ``tools/trace_report.py`` can reconstruct exactly the
numbers the report prints.  ``tests/obs/test_instrumentation.py`` holds
the trace against an independent replay of the tracker's transition log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.pgos import PGOSScheduler
from repro.core.spec import StreamSpec
from repro.network.emulab import TestbedRealization, make_figure8_testbed
from repro.network.faults import FaultCampaign
from repro.obs.context import Observability
from repro.obs.events import Category
from repro.obs.introspect import (
    detection_latency_from_trace,
    recovery_latency_from_trace,
)
from repro.robustness.health import (
    HealthThresholds,
    HealthTracker,
    HealthTransition,
)


@dataclass(frozen=True)
class ChaosReport:
    """Robustness metrics from one campaign run.

    ``time_to_detect`` / ``time_to_recover`` are ``None`` when the event
    never happened (no transition fired / paths never all healed), so a
    finite value is itself an assertion that the loop closed.
    """

    campaign: str
    dt: float
    duration: float
    #: seconds from first fault onset to first off-HEALTHY transition
    #: on a faulted path
    time_to_detect: Optional[float]
    #: seconds from last fault end until every path is HEALTHY again
    time_to_recover: Optional[float]
    #: per guaranteed stream, seconds delivered below its requirement
    violation_seconds: dict[str, float]
    #: per guaranteed stream, shortfall packets between onset and recovery
    packets_lost_during_remap: dict[str, int]
    #: per stream, fraction of its lifetime at >= its requirement
    attainment: dict[str, Optional[float]]
    remap_count: int
    transitions: tuple[HealthTransition, ...] = ()
    events: tuple[str, ...] = ()
    #: The run's observability context (trace + metrics).
    obs: Optional[Observability] = None

    @property
    def detected(self) -> bool:
        return self.time_to_detect is not None

    @property
    def recovered(self) -> bool:
        return self.time_to_recover is not None

    def summary(self) -> str:
        """A compact human-readable scorecard."""
        def fmt(value: Optional[float]) -> str:
            return f"{value:.2f}s" if value is not None else "never"

        lines = [
            f"campaign {self.campaign!r} over {self.duration:.0f}s "
            f"(dt={self.dt}s)",
            f"  time to detect : {fmt(self.time_to_detect)}",
            f"  time to recover: {fmt(self.time_to_recover)}",
            f"  remaps         : {self.remap_count}",
        ]
        for name in sorted(self.violation_seconds):
            attain = self.attainment.get(name)
            attain_s = f"{attain:.3f}" if attain is not None else "n/a"
            lines.append(
                f"  {name}: violation {self.violation_seconds[name]:.1f}s, "
                f"lost {self.packets_lost_during_remap[name]} pkts "
                f"during remap, attainment {attain_s}"
            )
        return "\n".join(lines)


def run_chaos_campaign(
    realization: TestbedRealization,
    streams: Sequence[StreamSpec],
    campaign: FaultCampaign,
    warmup_intervals: int = 200,
    tw: float = 1.0,
    thresholds: Optional[HealthThresholds] = None,
    scheduler: Optional[PGOSScheduler] = None,
    duration: Optional[float] = None,
    obs: Optional[Observability] = None,
) -> ChaosReport:
    """Run ``streams`` through ``campaign`` and score the fault handling.

    The service runs with ``strict_admission=False`` (a chaos run must
    not abort because the faulted overlay cannot re-admit everything —
    that is exactly the condition under test) and an auto-settled
    duration: long enough to cover the campaign plus a recovery tail,
    bounded by the realization.

    A fresh enabled :class:`Observability` context is created unless one
    is passed; the report's detect/recover figures come from its trace,
    so a disabled context is refused.  ``scheduler`` must be a
    :class:`PGOSScheduler` (fresh one by default) — the service's
    delivery engine accepts no other.
    """
    known = set(realization.path_names())
    ghost = (
        campaign.faulted_paths | {b.path for b in campaign.blackouts}
    ) - known
    if ghost:
        raise ConfigurationError(
            f"campaign targets unknown paths {sorted(ghost)}; "
            f"realization has {sorted(known)}"
        )
    dt = realization.dt
    max_duration = (realization.n_intervals - warmup_intervals) * dt
    if duration is None:
        # Campaign + the worst-case backoff tail, capped by the data.
        th = thresholds or HealthThresholds()
        tail = 2.0 * th.backoff_max + 10.0 * tw
        duration = min(campaign.last_end + tail, max_duration)
    if duration > max_duration + 1e-9:
        raise ConfigurationError(
            f"duration {duration}s exceeds realization "
            f"({max_duration}s after warmup)"
        )
    # Imported here, not at module top: the service pulls in
    # repro.harness.metrics, whose package __init__ imports this module.
    from repro.middleware.service import IQPathsService

    if obs is None:
        obs = Observability()
    elif not obs.enabled:
        raise ConfigurationError(
            "run_chaos_campaign needs an enabled Observability context: "
            "time-to-detect/recover are read from its trace"
        )
    tracker = HealthTracker(realization.path_names(), thresholds)
    service = IQPathsService(
        realization,
        warmup_intervals=warmup_intervals,
        tw=tw,
        strict_admission=False,
        scheduler=scheduler,
        campaign=campaign,
        health=tracker,
        obs=obs,
    )
    obs.trace.emit(
        0.0,
        Category.HARNESS,
        "campaign_start",
        campaign=campaign.name,
        faults=len(campaign.faults),
        blackouts=len(campaign.blackouts),
        first_onset=campaign.first_onset,
        last_end=campaign.last_end,
        duration=duration,
    )
    for spec in streams:
        service.open_stream(spec)
    service.advance(duration)

    guaranteed = [
        s for s in streams if s.guaranteed or s.max_violation_rate is not None
    ]
    reports: dict[str, StreamReport] = service.reports()
    violation_seconds: dict[str, float] = {}
    packets_lost: dict[str, int] = {}
    trace_events = obs.trace.events(category=Category.HEALTH)
    detect = detection_latency_from_trace(
        trace_events, campaign.faulted_paths, campaign.first_onset
    )
    recover = recovery_latency_from_trace(
        trace_events, realization.path_names(), campaign.last_end
    )
    onset = campaign.first_onset
    recovery_t = (
        campaign.last_end + recover if recover is not None else duration
    )
    for spec in guaranteed:
        series = reports[spec.name].mbps
        target = spec.required_mbps or 0.0
        below = series < target * 0.999
        violation_seconds[spec.name] = float(below.sum()) * dt
        lo = max(int(round(onset / dt)), 0)
        hi = min(int(round(recovery_t / dt)), series.size)
        shortfall_mbps = np.clip(target - series[lo:hi], 0.0, None)
        lost_bytes = float(shortfall_mbps.sum()) * dt * 1e6 / 8.0
        packets_lost[spec.name] = int(round(lost_bytes / spec.packet_size))
    obs.trace.emit(
        duration,
        Category.HARNESS,
        "campaign_end",
        campaign=campaign.name,
        time_to_detect=detect,
        time_to_recover=recover,
        remap_count=service.scheduler.remap_count,
    )
    obs.metrics.snapshot(duration)
    return ChaosReport(
        campaign=campaign.name,
        dt=dt,
        duration=duration,
        time_to_detect=detect,
        time_to_recover=recover,
        violation_seconds=violation_seconds,
        packets_lost_during_remap=packets_lost,
        attainment={
            name: rep.attainment for name, rep in reports.items()
        },
        remap_count=service.scheduler.remap_count,
        transitions=tuple(tracker.transitions),
        events=tuple(service.events),
        obs=obs,
    )


def standard_chaos_run(seed: int = 7, duration: float = 80.0) -> ChaosReport:
    """The canonical seeded campaign, as a pure spec->result function.

    Figure-8 testbed with a viable backup path, a random campaign (link
    flapping + correlated outage + monitor blackout) generated from
    ``seed``, driven through the full middleware.  This is the single
    construction shared by ``tools/run_chaos.py``, the CI chaos smoke,
    and the ``repro.runner`` chaos task — same seed, same report.
    """
    from repro.apps.smartpointer import smartpointer_streams

    testbed = make_figure8_testbed(
        profile_a="abilene-moderate", profile_b="light"
    )
    realization = testbed.realize(seed=41, duration=220.0, dt=0.1)
    campaign = FaultCampaign.random(
        ["A", "B"], duration=duration, seed=seed
    )
    return run_chaos_campaign(realization, smartpointer_streams(), campaign)
