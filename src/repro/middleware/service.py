"""IQ-Paths as a service: streams join, leave, and are self-regulated.

The figure experiments drive one fixed stream set; this facade exposes
the *dynamic* middleware the paper describes: admission upcalls at open
time, remaps on membership changes and CDF shifts, bounded sender
buffers, and per-stream reporting.

Time is interval-stepped (like the figure driver); the service owns the
loop and applications script membership through :meth:`IQPathsService.at`
or drive it step by step with :meth:`IQPathsService.advance`.

Runtime fault tolerance rides on top: pass a
:class:`repro.network.faults.FaultCampaign` and the service applies its
faults *mid-run* (scaling delivered bandwidth, adding loss, dropping
monitoring observations during blackouts), while a
:class:`repro.robustness.health.HealthTracker` watches every path.
Failed paths are quarantined out of the PGOS mapping, elastic streams
are shed before guaranteed ones, guarantees are downgraded before any
stream is dropped, and a quarantined path only re-enters service through
its backoff-gated, probe-confirmed recovery.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import AdmissionError, CheckpointError, ConfigurationError
from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.pgos import PGOSScheduler
from repro.core.scheduler import BUFFER_SECONDS
from repro.core.spec import StreamSpec
from repro.harness.metrics import fraction_of_time_at_least
from repro.network.emulab import TestbedRealization
from repro.network.faults import FaultCampaign
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.robustness.degradation import (
    DegradationLevel,
    DegradationPlan,
    plan_degradation,
)
from repro.robustness.health import HealthTracker
from repro.series import pack_series
from repro.sim.vectorized import VectorizedDelivery

#: Session seconds between ``metrics_snapshot`` trace events.
METRICS_SNAPSHOT_SECONDS = 5.0

_SPEC = attrgetter("spec")


@dataclass
class StreamHandle:
    """An application's handle on one open stream.

    ``stream_id`` is a service-assigned, monotonically increasing
    integer — the stable join key carried by trace events from every
    layer, so a stream renamed or reopened never aliases an old one.
    """

    spec: StreamSpec
    opened_at: float
    stream_id: int = 0
    closed_at: Optional[float] = None
    achieved_probability: Optional[float] = None
    #: Whether admission control accepted the stream at open time; False
    #: only under ``strict_admission=False`` (served degraded).
    admitted: bool = True
    #: Tenant label the opener attached (multi-tenant accounting), if any.
    tenant: Optional[str] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def open(self) -> bool:
        return self.closed_at is None


@dataclass(frozen=True)
class StreamReport:
    """Delivered-throughput summary of one open stream's lifetime so far.

    ``mbps`` is a read-only view into the service's delivered-history
    matrix, not a copy: writing into it raises ``ValueError``, its
    values never change as the service runs on, the stream's close
    included, and while the report is held it keeps that matrix alive.
    ``np.array(report.mbps)`` gives a detached, writable copy.
    """

    name: str
    mbps: np.ndarray
    dt: float
    target_mbps: Optional[float]

    @property
    def mean_mbps(self) -> float:
        return float(self.mbps.mean()) if self.mbps.size else 0.0

    @property
    def attainment(self) -> Optional[float]:
        """Fraction of its lifetime the stream met its requirement."""
        if self.target_mbps is None or self.mbps.size == 0:
            return None
        return fraction_of_time_at_least(
            self.mbps, self.target_mbps * 0.999
        )


def _session_clock(service: "IQPathsService") -> Callable[[], float]:
    """``service.now`` as a callable that does not keep the service alive.

    The scheduler, its monitors and the profiler hold the clock while
    the service holds them; a strong back-reference would make every
    finished service a cycle only the cyclic collector reclaims.  Once
    the service is gone the clock reads 0.0, like an unbound one.
    """
    ref = weakref.ref(service)

    def clock() -> float:
        service = ref()
        return 0.0 if service is None else service.now

    return clock


def _check_servable(spec: StreamSpec) -> None:
    """Refuse a spec interval-mode delivery cannot serve, before any state.

    A spec both guaranteed (or violation-bound) and elastic would file a
    rule-1/2 request and a rule-3 request on one path, which the
    water-fill refuses at the next step — after the open was committed.
    """
    if spec.elastic and (
        spec.guaranteed or spec.max_violation_rate is not None
    ):
        raise ConfigurationError(
            f"stream {spec.name!r} is both guaranteed and elastic, which "
            "delivery cannot serve on one path; open a guaranteed base "
            "stream plus an elastic fill stream instead (as "
            "repro.apps.video.layered_video_streams does)"
        )


class IQPathsService:
    """The full middleware behind one object.

    Parameters
    ----------
    realization:
        Per-path availability (and QoS) for the whole session.
    warmup_intervals:
        Probe phase: monitors fill before any stream can be opened.
    tw:
        Scheduling-window length handed to PGOS and admission control.
    strict_admission:
        When True (default), :meth:`open_stream` raises
        :class:`AdmissionError` if the new stream (plus those already
        open) is not admittable — the paper's upcall.  When False the
        stream is opened anyway and served best-effort/degraded.
    scheduler:
        A :class:`PGOSScheduler` (fresh one by default).  The delivery
        engine compiles PGOS's allocation rules, so any other scheduler
        is refused with :class:`ConfigurationError`.
    campaign:
        Optional dynamic fault schedule, applied mid-run: active faults
        scale what each path delivers and add loss; monitor blackouts
        drop the affected path's observations.  Campaign timestamps are
        session time (``t = 0`` when the probe phase ends).
    health:
        Optional :class:`HealthTracker` watching the paths.  Created
        automatically (default thresholds) when a ``campaign`` is given;
        pass one explicitly to tune thresholds or to enable runtime
        health without a campaign.
    """

    def __init__(
        self,
        realization: TestbedRealization,
        warmup_intervals: int = 200,
        tw: float = 1.0,
        strict_admission: bool = True,
        scheduler: Optional[PGOSScheduler] = None,
        campaign: Optional[FaultCampaign] = None,
        health: Optional[HealthTracker] = None,
        obs: Optional[Observability] = None,
        partition: Optional[str] = None,
    ):
        if warmup_intervals < 1 or warmup_intervals >= realization.n_intervals:
            raise ConfigurationError(
                f"warmup_intervals {warmup_intervals} out of range"
            )
        self.realization = realization
        self.dt = realization.dt
        self.tw = tw
        self.buffer_seconds = BUFFER_SECONDS
        self.strict_admission = strict_admission
        #: Cluster partition this service instance simulates, if any.
        #: Purely an accounting label — it never influences decisions.
        self.partition = partition
        self.path_names = realization.path_names()
        self._avail = {
            p: realization.available[p].available_mbps for p in self.path_names
        }
        self._qos = realization.qos
        self.scheduler = scheduler or PGOSScheduler()
        # The scheduler needs >= 1 stream for setup; bind lazily instead.
        self._scheduler_bound = False
        self.campaign = campaign
        if health is None and campaign is not None:
            health = HealthTracker(self.path_names)
        self.health = health
        self.obs = obs if obs is not None else NULL_OBS
        clock = _session_clock(self)
        if self.obs.prof.enabled:
            # Session time is the profiler's virtual clock for
            # service-driven runs; a Simulator rebinds while it owns
            # the loop (workload runs never mix the two).
            self.obs.prof.bind_clock(clock)
        self.scheduler.bind_observability(self.obs, clock=clock)
        if self.health is not None:
            self.health.bind_observability(self.obs)
        #: Monotone stream-ID allocator (stable join key for traces).
        self._next_stream_id = 0
        self._snapshot_every = max(
            1, int(round(METRICS_SNAPSHOT_SECONDS / self.dt))
        )
        #: The open streams' handles, in open order: a close retires the
        #: stream, and a reopened name goes to the end, as it does in
        #: ``scheduler.streams`` and the delivery batch.
        self.handles: dict[str, StreamHandle] = {}
        self._admission = AdmissionController(tw=tw)
        # One fold per service: admission's solves, the ladder's rungs
        # and the scheduler's remaps all place on it.
        self.scheduler.fold = self._admission.fold
        self._pending: list[tuple[int, Callable[[], None]]] = []
        self.upcalls: list[str] = []
        #: Health transitions and degradation decisions, human-readable.
        self.events: list[str] = []
        # Degradation bookkeeping: the spec actually in the scheduler per
        # stream (the requested one is the handle's) and the active plan.
        self._serving: dict[str, StreamSpec] = {}
        self._plan: Optional[DegradationPlan] = None
        self.degradation_level = DegradationLevel.NORMAL

        self._k = 0
        while self._k < warmup_intervals:
            self._observe(self._k)
            self._k += 1
        self._start_k = self._k

        # The struct-of-arrays engine owns delivery state and the hot
        # loop (backlog, history, request templates).
        self._vec = VectorizedDelivery(self)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Session time in seconds (0 at the end of the probe phase)."""
        return (self._k - self._start_k) * self.dt

    @property
    def remaining_intervals(self) -> int:
        return self.realization.n_intervals - self._k

    def _session_time(self, k: int) -> float:
        return (k - self._start_k) * self.dt

    # ------------------------------------------------------------------
    # fault-aware path views
    # ------------------------------------------------------------------
    def _effective_avail(self, path: str, k: int) -> float:
        """Realized availability with the campaign's active faults applied."""
        value = float(self._avail[path][k])
        if self.campaign is not None:
            value *= self.campaign.availability_multiplier(
                path, self._session_time(k)
            )
        return value

    def _effective_loss(self, path: str, k: int) -> float:
        loss = float(self._qos[path].loss_rate[k])
        if self.campaign is not None:
            loss += self.campaign.extra_loss(path, self._session_time(k))
        return min(loss, 1.0)

    def _path_observed(self, path: str, k: int) -> bool:
        if self.campaign is None:
            return True
        return self.campaign.observed(path, self._session_time(k))

    def _usable_paths(self) -> list[str]:
        """Paths the mapping may use (all when health is off or all failed)."""
        if self.health is None:
            return list(self.path_names)
        quarantined = self.health.quarantined()
        usable = [p for p in self.path_names if p not in quarantined]
        return usable or list(self.path_names)

    def _observe(self, k: int) -> None:
        if not self._scheduler_bound:
            # Not bound yet: history is seeded on bind (_bind_scheduler).
            return
        observed = [p for p in self.path_names if self._path_observed(p, k)]
        if not observed:
            return
        self.scheduler.observe(
            k,
            {p: self._effective_avail(p, k) for p in observed},
            rtt_ms={p: float(self._qos[p].rtt_ms[k]) for p in observed},
            loss_rate={p: self._effective_loss(p, k) for p in observed},
        )

    def _bind_scheduler(self, first_spec: StreamSpec) -> None:
        self.scheduler.setup(
            [first_spec], self.path_names, dt=self.dt, tw=self.tw
        )
        self.scheduler.seed_history(
            {p: self._avail[p][: self._k] for p in self.path_names}
        )
        # setup() replaced the stream list; drop the bootstrap spec, the
        # caller's open_stream() adds it through the normal path.
        self.scheduler.remove_stream(first_spec.name)
        self._scheduler_bound = True
        if self.health is not None:
            self.scheduler.set_quarantine(self.health.quarantined())

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def _count_admission(
        self, outcome: str, tenant: Optional[str]
    ) -> None:
        """File one admission outcome into the metrics registry.

        ``admission.admitted`` / ``admission.rejected`` /
        ``admission.degraded`` are the first-class counters
        ``tools/trace_report.py`` correlates with health transitions;
        the per-tenant twins carry the multi-tenant breakdown and the
        per-partition twins the cluster's per-partition breakdown.
        """
        if not self.obs.enabled:
            return
        self.obs.metrics.counter(f"admission.{outcome}").inc()
        if tenant is not None:
            self.obs.metrics.counter(
                f"admission.{outcome}.tenant.{tenant}"
            ).inc()
        if self.partition is not None:
            self.obs.metrics.counter(
                f"admission.{outcome}.partition.{self.partition}"
            ).inc()

    def _fold_counts(self) -> tuple[int, int, int]:
        fold = self._admission.fold
        return fold.solves, fold.placements, fold.reused

    def _count_fold(self, before: tuple[int, int, int]) -> None:
        """Publish what admission did on the fold since ``before``.

        ``mapping.fold_solves`` mapping solves asked of the controller,
        ``mapping.fold_placements`` streams it placed for them and
        ``mapping.fold_reused`` placements it kept from the solve
        before: the split of an open into solve, ladder and bookkeeping.
        The scheduler's remaps solve on the same fold and are not
        counted here.
        """
        if not self.obs.enabled:
            return
        for name, was, now in zip(
            ("solves", "placements", "reused"), before, self._fold_counts()
        ):
            self.obs.metrics.counter(f"mapping.fold_{name}").inc(now - was)

    def _reject_upcall(
        self,
        spec: StreamSpec,
        stream_id: int,
        hint: Optional[float],
        tenant: Optional[str],
    ) -> str:
        """Record the admission upcall for one non-admittable stream."""
        message = (
            f"stream {spec.name!r} not admittable"
            + (f"; overlay can offer P~={hint:.3f}" if hint else "")
        )
        self.upcalls.append(message)
        outcome = "rejected" if self.strict_admission else "degraded"
        self._count_admission(outcome, tenant)
        if self.obs.enabled:
            self.obs.metrics.counter("service.admission_rejections").inc()
            self.obs.trace.emit(
                self.now,
                Category.SERVICE,
                "admission_upcall",
                stream_id=stream_id,
                stream=spec.name,
                message=message,
                suggested_probability=hint,
                tenant=tenant,
            )
        return message

    def _register_stream(
        self,
        spec: StreamSpec,
        stream_id: int,
        admitted: bool,
        achieved: Optional[float],
        tenant: Optional[str],
    ) -> StreamHandle:
        """Install an (admitted or degraded) stream into the service."""
        self.scheduler.add_stream(spec)
        self._serving[spec.name] = spec
        handle = StreamHandle(
            spec=spec,
            opened_at=self.now,
            stream_id=stream_id,
            achieved_probability=achieved,
            admitted=admitted,
            tenant=tenant,
        )
        self.handles[spec.name] = handle
        if self.obs.enabled:
            self.obs.metrics.counter("service.streams_opened").inc()
            self.obs.trace.emit(
                self.now,
                Category.SERVICE,
                "stream_open",
                stream_id=stream_id,
                stream=spec.name,
                admitted=admitted,
                required_mbps=spec.required_mbps,
                probability=spec.probability,
                achieved_probability=achieved,
                tenant=tenant,
            )
        self._vec.on_open(handle)
        self._vec.serve(spec)
        return handle

    def _maybe_refresh_after_open(self) -> None:
        if self.health is not None and (
            self.health.quarantined()
            or self.degradation_level is not DegradationLevel.NORMAL
        ):
            self._refresh_degradation()

    def _admit(self, new_specs: list[StreamSpec]) -> AdmissionDecision:
        """One admission decision: every open stream plus ``new_specs``.

        Admission sees what the scheduler's next remap will see — the
        usable paths' CDF snapshots and RTT/loss levels — and the
        mapping it solved (on rejection: the mapping of the streams
        that do fit) is handed to the scheduler, which installs it
        instead of solving again when the remap turns out to ask the
        same question (:meth:`PGOSScheduler.offer_mapping`).
        """
        scheduler = self.scheduler
        specs = list(map(_SPEC, self.handles.values())) + new_specs
        usable = self._usable_paths()
        cdfs = {p: scheduler.monitors[p].cdf() for p in usable}
        qos = scheduler.path_qos(usable)
        before = self._fold_counts()
        with self.obs.prof.span("service.admission"):
            decision = self._admission.try_admit(specs, cdfs, qos)
        self._count_fold(before)
        if decision.mapping is not None:
            if not decision.admitted:
                specs = [
                    s for s in specs if s.name != decision.rejected_stream
                ]
            scheduler.offer_mapping(specs, cdfs, qos, decision.mapping)
        return decision

    def _settle_open(
        self,
        spec: StreamSpec,
        decision: AdmissionDecision,
        tenant: Optional[str],
        upcall: bool,
    ) -> StreamHandle:
        """File one stream of an admission decision and install it.

        The one per-stream outcome block behind :meth:`open_stream` and
        :meth:`open_streams`: stream ID, admission counters, the upcall
        for the stream a refusal names (``upcall``; raises under strict
        admission, nothing is installed), then the handle.
        """
        self._next_stream_id += 1
        stream_id = self._next_stream_id
        self.obs.bind_stream(spec.name, stream_id)
        achieved = None
        if decision.admitted:
            self._count_admission("admitted", tenant)
            if decision.mapping is not None:
                achieved = decision.mapping.achieved_probability.get(
                    spec.name
                )
        elif upcall:
            message = self._reject_upcall(
                spec, stream_id, decision.suggested_probability, tenant
            )
            if self.strict_admission:
                raise AdmissionError(spec.name, message)
        else:
            self._count_admission("degraded", tenant)
        return self._register_stream(
            spec, stream_id, decision.admitted, achieved, tenant
        )

    def open_stream(
        self, spec: StreamSpec, tenant: Optional[str] = None
    ) -> StreamHandle:
        """Open a stream now; admission-checked against monitored CDFs.

        ``tenant`` is an optional accounting label: it rides on the
        handle, on every ``stream_open`` / ``admission_upcall`` trace
        event, and on the per-tenant ``admission.*.tenant.<name>``
        metric counters (the workload engine's join key).
        """
        if spec.name in self.handles:
            raise ConfigurationError(f"stream {spec.name!r} already open")
        _check_servable(spec)
        if not self._scheduler_bound:
            self._bind_scheduler(spec)
        decision = self._admit([spec])
        handle = self._settle_open(spec, decision, tenant, upcall=True)
        self._maybe_refresh_after_open()
        return handle

    def open_streams(
        self,
        specs: Sequence[StreamSpec],
        tenant: Optional[str] = None,
    ) -> list[StreamHandle]:
        """Open many streams under a *single* admission decision.

        The batch churn hook: one :class:`AdmissionController` pass
        covers every stream already open plus the whole batch, so
        opening N streams costs one resource mapping instead of N
        (incremental :meth:`open_stream` is quadratic in the standing
        population).  Semantics are all-or-nothing, with one admission
        upcall naming the stream the decision failed on: under strict
        admission a batch that does not fit raises
        :class:`AdmissionError` for that stream and opens nothing;
        under lenient admission the whole batch opens degraded.
        """
        specs = list(specs)
        if not specs:
            return []
        seen: set[str] = set()
        for spec in specs:
            if spec.name in seen:
                raise ConfigurationError(
                    f"duplicate stream {spec.name!r} in batch"
                )
            seen.add(spec.name)
            if spec.name in self.handles:
                raise ConfigurationError(
                    f"stream {spec.name!r} already open"
                )
            _check_servable(spec)
        if not self._scheduler_bound:
            self._bind_scheduler(specs[0])
        decision = self._admit(specs)
        rejected = None
        if not decision.admitted:
            rejected = next(
                (s for s in specs if s.name == decision.rejected_stream),
                specs[0],
            )
            if self.strict_admission:
                # All-or-nothing: only the named stream is settled,
                # and settling it raises.
                specs = [rejected]
        handles = [
            self._settle_open(
                spec, decision, tenant, upcall=spec is rejected
            )
            for spec in specs
        ]
        self._maybe_refresh_after_open()
        return handles

    def close_stream(self, name: str) -> StreamHandle:
        """Terminate a stream; its capacity is remapped to the others.

        The close retires the stream: take its :meth:`report` first."""
        handle = self.handles.pop(name, None)
        if handle is None:
            raise ConfigurationError(f"stream {name!r} is not open")
        if name in self._serving:
            self.scheduler.remove_stream(name)
            self._vec.unserve(name)
            del self._serving[name]
        handle.closed_at = self.now
        self._vec.on_close(name)
        if self.obs.enabled:
            self.obs.metrics.counter("service.streams_closed").inc()
            self.obs.trace.emit(
                self.now,
                Category.SERVICE,
                "stream_close",
                stream_id=handle.stream_id,
                stream=name,
            )
        return handle

    def at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` (open/close calls) at session time ``time``."""
        k = self._start_k + int(round(time / self.dt))
        if k < self._k:
            raise ConfigurationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._pending.append((k, action))
        self._pending.sort(key=lambda e: e[0])

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _refresh_degradation(self) -> None:
        """Re-plan shedding/downgrades for the current path health."""
        if self.health is None or not self._scheduler_bound:
            return
        if not self.handles:
            return
        quarantined = self.health.quarantined()
        usable = self._usable_paths()
        cdfs = {p: self.scheduler.monitors[p].cdf() for p in usable}
        originals = list(map(_SPEC, self.handles.values()))
        before = self._fold_counts()
        with self.obs.prof.span("service.degradation_plan"):
            plan = plan_degradation(
                originals,
                cdfs,
                self.tw,
                quarantine_active=bool(quarantined),
                admission=self._admission,
                qos=self.scheduler.path_qos(usable),
                previous=self._plan,
            )
        self._count_fold(before)
        if plan == self._plan:
            return
        self._apply_plan(plan)
        self._plan = plan
        if plan.level is not self.degradation_level:
            self.events.append(
                f"t={self.now:.1f}s degradation "
                f"{self.degradation_level.name} -> {plan.level.name}"
            )
            if self.obs.enabled:
                self.obs.metrics.counter("service.degradation_changes").inc()
                self.obs.metrics.gauge("service.degradation_level").set(
                    int(plan.level)
                )
                self.obs.trace.emit(
                    self.now,
                    Category.SERVICE,
                    "degradation",
                    old_level=self.degradation_level.name,
                    new_level=plan.level.name,
                    notes=list(plan.notes),
                )
        self.degradation_level = plan.level
        for note in plan.notes:
            self.events.append(f"t={self.now:.1f}s {note}")

    def _apply_plan(self, plan: DegradationPlan) -> None:
        """Diff the scheduler's stream set against ``plan`` and apply."""
        desired: dict[str, StreamSpec] = {}
        for name in self.handles:
            spec = plan.spec_for(name)
            if spec is not None:
                desired[name] = spec
        for name in list(self._serving):
            target = desired.get(name)
            if target is None:
                self.scheduler.remove_stream(name)
                self._vec.unserve(name)
                del self._serving[name]
                self._emit_plan_event("stream_shed", name)
            elif target is not (served := self._serving[name]) and (
                target != served
            ):
                self.scheduler.remove_stream(name)
                self.scheduler.add_stream(target)
                self._vec.unserve(name)
                self._vec.serve(target)
                self._serving[name] = target
                self._emit_plan_event(
                    "stream_downgraded",
                    name,
                    required_mbps=target.required_mbps,
                    probability=target.probability,
                )
        for name, spec in desired.items():
            if name not in self._serving:
                self.scheduler.add_stream(spec)
                self._vec.serve(spec)
                self._serving[name] = spec
                self._emit_plan_event("stream_restored", name)

    def _emit_plan_event(self, name: str, stream: str, **fields) -> None:
        """One degradation-plan action (shed/downgrade/restore) as trace."""
        if not self.obs.enabled:
            return
        handle = self.handles.get(stream)
        self.obs.metrics.counter(f"service.{name}").inc()
        self.obs.trace.emit(
            self.now,
            Category.SERVICE,
            name,
            stream_id=handle.stream_id if handle is not None else None,
            stream=stream,
            **fields,
        )

    @property
    def shed_streams(self) -> frozenset[str]:
        """Open streams currently paused by the degradation policy."""
        return frozenset(
            name for name in self.handles if name not in self._serving
        )

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def advance(self, seconds: float) -> None:
        """Run the delivery loop for ``seconds`` of session time."""
        steps = int(round(seconds / self.dt))
        if steps < 0 or steps > self.remaining_intervals:
            raise ConfigurationError(
                f"cannot advance {seconds}s ({steps} intervals); "
                f"{self.remaining_intervals} remain"
            )
        for _ in range(steps):
            self._step()

    def _step(self) -> None:
        prof = self.obs.prof
        if prof.enabled:
            with prof.span("service.step"):
                self._step_inner()
        else:
            self._step_inner()

    def _step_inner(self) -> None:
        k = self._k
        while self._pending and self._pending[0][0] <= k:
            _, action = self._pending.pop(0)
            action()
        obs = self.obs
        prof = obs.prof
        # The batch state knows the open set, so the step never scans
        # every handle; the delivery core needs handles only for trace
        # emission.  (An idle interval is the history column's default
        # zero — no write needed.)
        if self._vec.batch.n_open and self._scheduler_bound:
            handles = (
                list(self.handles.values())
                if obs.enabled or prof.enabled
                else ()
            )
            if prof.enabled:
                with prof.span("service.delivery"):
                    self._deliver(k, handles)
            else:
                self._deliver(k, handles)
        self._observe(k)
        self._update_health(k)
        self._k += 1
        if obs.enabled and (self._k - self._start_k) % (
            self._snapshot_every
        ) == 0:
            obs.metrics.snapshot(self.now)

    def _deliver(self, k: int, open_handles: list[StreamHandle]) -> None:
        """One interval of backlog accrual, PGOS allocation, water-fill
        delivery, and shortfall accounting — columnar numpy ops over
        the batch state (:meth:`VectorizedDelivery.deliver`).
        """
        self._vec.deliver(k, open_handles)

    def _emit_shortfalls(self, k: int, delivered: dict[str, float]) -> None:
        """Per-window guarantee shortfall events (the trace's ground truth
        for "stream X missed its guarantee in window k")."""
        window = k - self._start_k
        for name, mbps in delivered.items():
            handle = self.handles[name]
            target = handle.spec.required_mbps
            if target is None or mbps >= target * 0.999:
                continue
            self.obs.metrics.counter("service.shortfall_intervals").inc()
            self.obs.trace.emit(
                self.now,
                Category.SERVICE,
                "window_shortfall",
                stream_id=handle.stream_id,
                stream=name,
                window=window,
                delivered_mbps=mbps,
                required_mbps=target,
                shed=name not in self._serving,
            )

    def _update_health(self, k: int) -> None:
        if self.health is None:
            return
        t = self._session_time(k)
        bandwidth: dict[str, Optional[float]] = {}
        loss: dict[str, float] = {}
        ks_shift: dict[str, bool] = {}
        mapped = (
            self._scheduler_bound and self.scheduler.mapping is not None
        )
        for p in self.path_names:
            if self._path_observed(p, k):
                bandwidth[p] = self._effective_avail(p, k)
                loss[p] = self._effective_loss(p, k)
            else:
                bandwidth[p] = None  # probe timeout
                loss[p] = 0.0
            ks_shift[p] = (
                self.scheduler.monitors[p].cdf_changed_significantly()
                if mapped
                else False
            )
        fired = self.health.update(t, bandwidth, loss=loss, ks_shift=ks_shift)
        if not fired:
            return
        for transition in fired:
            self.events.append(str(transition))
        if self._scheduler_bound:
            self.scheduler.set_quarantine(self.health.quarantined())
        self._refresh_degradation()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the full service state.

        The restoring service must be constructed from the *same*
        configuration (realization, campaign, warmup, windows): only
        mutable mid-run state is serialized.  Dict/list orders are
        preserved deliberately — handle iteration order feeds the
        delivery loop and the scheduler's float summations.

        The service's state is its open streams (a close retires the
        stream), and each is written once:

        * ``handles`` has one entry per open stream, in open order, with
          its requested spec and the history column it opened at.
        * ``serving`` lists the streams the scheduler serves, in serving
          order, with a spec only where the degradation plan serves
          another one than the handle's (``null`` elsewhere).
        * ``scheduler`` names its streams in its own order (it differs
          from ``serving``'s after a downgrade) and, on restore, takes
          the ``serving`` spec objects.
        * ``delivered`` packs each open stream's series as base64 of its
          little-endian float64 bytes (:func:`repro.series.pack_series`):
          exact, and one C call each way.

        Observability (metrics/trace) is not checkpointed; it is
        diagnostic output and is excluded from result checksums.

        Restoring replaces the history matrix rather than overwriting
        it: a :class:`StreamReport` taken before :meth:`load_state_dict`
        is a read-only view of the old matrix and keeps its values (and
        that matrix) for as long as it is held.

        Raises :class:`CheckpointError` while :meth:`at` actions are
        pending — callables cannot be serialized, so checkpoints must be
        taken at quiescent points (the churn driver's step boundaries).
        """
        if self._pending:
            raise CheckpointError(
                f"cannot checkpoint with {len(self._pending)} pending at() "
                "action(s); snapshot at a step boundary with no scheduled "
                "callables"
            )
        plan = self._plan
        plan_state = None
        if plan is not None:
            plan_state = {
                "level": int(plan.level),
                "serve": [s.to_dict() for s in plan.serve],
                "shed": list(plan.shed),
                "downgraded": {
                    name: value for name, value in plan.downgraded.items()
                },
                "notes": list(plan.notes),
            }
        handles = self.handles
        batch = self._vec.batch
        return {
            "k": self._k,
            "start_k": self._start_k,
            "next_stream_id": self._next_stream_id,
            "handles": [
                {
                    "spec": h.spec.to_dict(),
                    "opened_col": int(batch.opened_col[batch.row(name)]),
                    "stream_id": h.stream_id,
                    "achieved_probability": h.achieved_probability,
                    "admitted": h.admitted,
                    "tenant": h.tenant,
                }
                for name, h in handles.items()
            ],
            "delivered": self._delivered_state(),
            "backlog_bytes": self._backlog_state(),
            "upcalls": list(self.upcalls),
            "events": list(self.events),
            "serving": [
                [name, None if spec == handles[name].spec else spec.to_dict()]
                for name, spec in self._serving.items()
            ],
            "plan": plan_state,
            "degradation_level": int(self.degradation_level),
            "scheduler_bound": self._scheduler_bound,
            "scheduler": (
                self.scheduler.state_dict() if self._scheduler_bound else None
            ),
            "health": (
                self.health.state_dict() if self.health is not None else None
            ),
        }

    def _delivered_state(self) -> dict[str, str]:
        """Open streams' packed delivered histories, in open order."""
        col = self._k - self._start_k
        batch = self._vec.batch
        return {
            name: pack_series(batch.history_array(name, col))
            for name in self.handles
        }

    def _backlog_state(self) -> dict[str, float]:
        """Backlog bytes per open stream, in open order."""
        return dict(self._vec.batch.backlog_items())

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a fresh service."""
        if int(state["start_k"]) != self._start_k:
            raise CheckpointError(
                f"warmup mismatch: service has start_k={self._start_k}, "
                f"checkpoint was taken with start_k={state['start_k']}"
            )
        if (state["health"] is None) != (self.health is None):
            raise CheckpointError(
                "health-tracker presence differs between the checkpoint "
                "and the restoring service configuration"
            )
        self._k = int(state["k"])
        self._next_stream_id = int(state["next_stream_id"])
        self.handles = {}
        for entry in state["handles"]:
            spec = StreamSpec.from_dict(entry["spec"])
            self.handles[spec.name] = StreamHandle(
                spec=spec,
                # What ``now`` read at the open.
                opened_at=int(entry["opened_col"]) * self.dt,
                stream_id=int(entry["stream_id"]),
                achieved_probability=entry["achieved_probability"],
                admitted=bool(entry["admitted"]),
                tenant=entry["tenant"],
            )
        self.upcalls = list(state["upcalls"])
        self.events = list(state["events"])
        self._serving = {
            name: (
                self.handles[name].spec
                if spec_dict is None
                else StreamSpec.from_dict(spec_dict)
            )
            for name, spec_dict in state["serving"]
        }
        plan_state = state["plan"]
        if plan_state is None:
            self._plan = None
        else:
            self._plan = DegradationPlan(
                level=DegradationLevel(plan_state["level"]),
                serve=tuple(
                    StreamSpec.from_dict(d) for d in plan_state["serve"]
                ),
                shed=tuple(plan_state["shed"]),
                downgraded=dict(plan_state["downgraded"]),
                notes=tuple(plan_state["notes"]),
            )
        self.degradation_level = DegradationLevel(state["degradation_level"])
        # Health first: binding the scheduler consults the quarantine set.
        if self.health is not None:
            self.health.load_state_dict(state["health"])
        self._pending = []
        self._scheduler_bound = False
        if state["scheduler_bound"]:
            # Rebind through the normal path (setup + history seed +
            # quarantine), then overwrite every monitor/stream/mapping
            # with the checkpointed state.  The scheduler serves the
            # very spec objects ``_serving`` holds, as it did before.
            self._bind_scheduler(
                StreamSpec(name="__checkpoint_restore__", required_mbps=1.0)
            )
            self.scheduler.load_state_dict(
                state["scheduler"], self._serving.values()
            )
        self._vec.rebuild_from_state(state)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, name: str) -> StreamReport:
        """Throughput record of one open stream's lifetime so far (a
        closed stream is unknown: take it before :meth:`close_stream`)."""
        if name not in self.handles:
            raise ConfigurationError(f"unknown stream {name!r}")
        handle = self.handles[name]
        return StreamReport(
            name=name,
            mbps=self._vec.batch.history_array(
                name, self._k - self._start_k
            ),
            dt=self.dt,
            target_mbps=handle.spec.required_mbps,
        )

    def reports(self) -> dict[str, StreamReport]:
        """Reports of the open streams, in open order."""
        return {name: self.report(name) for name in self.handles}
