"""Open-loop churn driver: session arrivals and departures mid-run.

:class:`ChurnDriver` takes a planned session population (from
:func:`repro.workload.catalog.plan_sessions`) and plays it against a
live :class:`~repro.middleware.service.IQPathsService` on the sim
clock: each ``dt`` step first closes sessions whose holding time
expired, then opens sessions whose arrival time came due, then advances
the delivery loop one interval.  The load is *open-loop* — arrivals do
not slow down when the overlay saturates, which is exactly what makes
the capacity envelope measurable.

Every admission outcome (admit / degrade / reject), every close, and
every shed observed along the way is recorded per session and rolled up
per tenant into a :class:`WorkloadReport`.  The report is a pure
function of ``(plans, service configuration, seed)`` — it contains no
wall-clock material — so two same-seed runs produce byte-identical
``to_dict()`` payloads and the whole run can live behind the
:mod:`repro.runner` content-addressed cache.  ``WORKLOAD``-category
trace events mirror the same lifecycle onto the observability bus.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import AdmissionError, CheckpointError, ConfigurationError
from repro.middleware.service import IQPathsService
from repro.obs.events import Category
from repro.runner.cache import payload_digest
from repro.series import pack_series, unpack_series
from repro.workload.catalog import SessionPlan


def _round6(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(float(value), 6)


@dataclass
class SessionRecord:
    """Final accounting for one planned session."""

    index: int
    name: str
    tenant: str
    template: str
    arrival_s: float
    holding_s: float
    #: "admitted" | "degraded" | "rejected"
    outcome: str
    opened_at: Optional[float] = None
    closed_at: Optional[float] = None
    #: True if the degradation policy paused the stream at any point.
    shed: bool = False
    #: True if the run ended before the session's planned departure.
    truncated: bool = False
    mean_mbps: Optional[float] = None
    attainment: Optional[float] = None
    #: Guaranteed session that was admitted but missed its probability.
    violated: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "tenant": self.tenant,
            "template": self.template,
            "arrival_s": _round6(self.arrival_s),
            "holding_s": _round6(self.holding_s),
            "outcome": self.outcome,
            "opened_at": _round6(self.opened_at),
            "closed_at": _round6(self.closed_at),
            "shed": self.shed,
            "truncated": self.truncated,
            "mean_mbps": _round6(self.mean_mbps),
            "attainment": _round6(self.attainment),
            "violated": self.violated,
        }


@dataclass
class TenantAccount:
    """Per-tenant rollup of session outcomes and delivered goodput."""

    tenant: str
    priority: int
    offered: int = 0
    admitted: int = 0
    degraded: int = 0
    rejected: int = 0
    shed: int = 0
    violations: int = 0
    delivered_megabits: float = 0.0
    _attainments: list[float] = field(default_factory=list, repr=False)

    @property
    def mean_attainment(self) -> Optional[float]:
        if not self._attainments:
            return None
        return sum(self._attainments) / len(self._attainments)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "priority": self.priority,
            "offered": self.offered,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "shed": self.shed,
            "violations": self.violations,
            "delivered_megabits": _round6(self.delivered_megabits),
            "mean_attainment": _round6(self.mean_attainment),
        }


@dataclass
class WorkloadReport:
    """Everything one churn run produced, deterministically serializable."""

    scenario: str
    seed: int
    dt: float
    duration: float
    offered: int
    admitted: int
    degraded: int
    rejected: int
    closed: int
    truncated: int
    shed_sessions: int
    violations: int
    peak_concurrent: int
    delivered_megabits: float
    tenants: dict[str, TenantAccount]
    sessions: list[SessionRecord]

    @property
    def violation_rate(self) -> float:
        """Fraction of offered sessions the overlay failed in any way.

        A session counts as a violation if it was rejected, opened
        degraded, or admitted with a guarantee it then missed — the
        quantity the capacity envelope holds under its ceiling.
        """
        if self.offered == 0:
            return 0.0
        return (self.rejected + self.degraded + self.violations) / (
            self.offered
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical payload: pure, sorted, wall-clock-free."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "dt": self.dt,
            "duration": self.duration,
            "offered": self.offered,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "closed": self.closed,
            "truncated": self.truncated,
            "shed_sessions": self.shed_sessions,
            "violations": self.violations,
            "violation_rate": _round6(self.violation_rate),
            "peak_concurrent": self.peak_concurrent,
            "delivered_megabits": _round6(self.delivered_megabits),
            "tenants": {
                name: account.to_dict()
                for name, account in sorted(self.tenants.items())
            },
            "sessions": [s.to_dict() for s in self.sessions],
        }

    def checksum(self) -> str:
        """Hex digest of the canonical payload (byte-identity probe)."""
        return payload_digest(self.to_dict())

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"workload {self.scenario!r} seed={self.seed}: "
            f"{self.offered} sessions over {self.duration:.0f}s",
            f"  admitted={self.admitted} degraded={self.degraded} "
            f"rejected={self.rejected} shed={self.shed_sessions} "
            f"violations={self.violations}",
            f"  violation_rate={self.violation_rate:.4f} "
            f"peak_concurrent={self.peak_concurrent} "
            f"delivered={self.delivered_megabits:.1f} Mb",
        ]
        for name, account in sorted(
            self.tenants.items(),
            key=lambda kv: (kv[1].priority, kv[0]),
        ):
            mean_att = account.mean_attainment
            att = f"{mean_att:.3f}" if mean_att is not None else "n/a"
            lines.append(
                f"  [{name}] offered={account.offered} "
                f"admitted={account.admitted} "
                f"degraded={account.degraded} "
                f"rejected={account.rejected} shed={account.shed} "
                f"violations={account.violations} attainment={att}"
            )
        return "\n".join(lines)


#: Record outcomes, in the order of their packed codes.
_OUTCOMES = ("admitted", "degraded", "rejected")
_OUTCOME_CODES = {outcome: code for code, outcome in enumerate(_OUTCOMES)}
#: A record's optional floats; a packed NaN is ``None``.
_OPTIONAL = ("opened_at", "closed_at", "mean_mbps", "attainment")


def _pack_records(records: Sequence[SessionRecord]) -> dict[str, str]:
    """What only the run determined of ``records``, as packed columns.

    One :func:`~repro.series.pack_series` column each for the outcome
    code, the flags bits and every optional float, exact (un-rounded:
    :meth:`SessionRecord.to_dict` rounds for the report, a resumed run's
    arithmetic needs the raw values).  The rest of a record is its plan
    (:func:`_unpack_records`).  ``None`` is packed as NaN, so a present
    value that is not finite fails the save, as it would in strict JSON.
    """
    columns = {
        "outcome": pack_series([_OUTCOME_CODES[r.outcome] for r in records]),
        # Bits 0, 1 and 2: shed, truncated, violated.
        "flags": pack_series(
            [r.shed | r.truncated << 1 | r.violated << 2 for r in records]
        ),
    }
    for field_name in _OPTIONAL:
        values = [getattr(r, field_name) for r in records]
        column = np.array(values, dtype=float)  # None reads as NaN
        present = len(values) - values.count(None)
        if np.count_nonzero(np.isfinite(column)) != present:
            raise ValueError(
                f"session record {field_name!r} is not finite; a snapshot "
                "must be strict JSON"
            )
        columns[field_name] = pack_series(column)
    return columns


def _unpack_records(
    columns: Mapping[str, str], plans: Sequence[SessionPlan]
) -> dict[str, SessionRecord]:
    """The records :func:`_pack_records` wrote for ``plans``, by name.

    A column that is not a packing of exactly one value per plan, an
    unknown outcome code or a flags value outside its bits is a
    :class:`CheckpointError`.
    """
    unpacked = {}
    for key in ("outcome", "flags", *_OPTIONAL):
        values = unpack_series(columns[key])
        if values.size != len(plans):
            raise CheckpointError(
                f"record column {key!r} has {values.size} values for "
                f"{len(plans)} sessions"
            )
        unpacked[key] = values.tolist()
    for key, codes in (("outcome", len(_OUTCOMES)), ("flags", 8)):
        if not set(unpacked[key]) <= set(range(codes)):
            raise CheckpointError(f"record column {key!r} has unknown codes")
    optional = [
        [None if v != v else v for v in unpacked[key]] for key in _OPTIONAL
    ]
    records = {}
    for plan, code, flags, opened, closed, mean, attainment in zip(
        plans, unpacked["outcome"], unpacked["flags"], *optional
    ):
        flags = int(flags)
        records[plan.name] = SessionRecord(
            index=plan.index,
            name=plan.name,
            tenant=plan.tenant,
            template=plan.template,
            arrival_s=plan.arrival_s,
            holding_s=plan.holding_s,
            outcome=_OUTCOMES[int(code)],
            opened_at=opened,
            closed_at=closed,
            shed=bool(flags & 1),
            truncated=bool(flags & 2),
            mean_mbps=mean,
            attainment=attainment,
            violated=bool(flags & 4),
        )
    return records


def _account_state(account: TenantAccount) -> dict[str, Any]:
    """Exact snapshot of a :class:`TenantAccount` (all counters raw)."""
    return {
        "tenant": account.tenant,
        "priority": account.priority,
        "offered": account.offered,
        "admitted": account.admitted,
        "degraded": account.degraded,
        "rejected": account.rejected,
        "shed": account.shed,
        "violations": account.violations,
        "delivered_megabits": account.delivered_megabits,
        "attainments": list(account._attainments),
    }


def _account_from_state(state: dict[str, Any]) -> TenantAccount:
    return TenantAccount(
        tenant=state["tenant"],
        priority=int(state["priority"]),
        offered=int(state["offered"]),
        admitted=int(state["admitted"]),
        degraded=int(state["degraded"]),
        rejected=int(state["rejected"]),
        shed=int(state["shed"]),
        violations=int(state["violations"]),
        delivered_megabits=float(state["delivered_megabits"]),
        _attainments=[float(v) for v in state["attainments"]],
    )


@dataclass
class _RunState:
    """Mutable mid-run state of one :meth:`ChurnDriver.run` invocation.

    Everything the step loop touches lives here (not in locals), so a
    checkpoint taken between steps captures the loop exactly and
    :meth:`ChurnDriver.run` can resume from step ``k``.
    """

    #: Next step index to execute (steps ``0..k-1`` are done).
    k: int = 0
    records: dict[str, SessionRecord] = field(default_factory=dict)
    tenants: dict[str, TenantAccount] = field(default_factory=dict)
    #: Departure heap: (close_time, plan_index, session_name).  The
    #: index tie-break keeps same-instant closes in arrival order.
    departures: list[tuple[float, int, str]] = field(default_factory=list)
    next_plan: int = 0
    open_sessions: set[str] = field(default_factory=set)
    shed_seen: set[str] = field(default_factory=set)
    peak_concurrent: int = 0


class ChurnDriver:
    """Plays a session plan against a service, one interval at a time.

    Opens and closes go through the service's public API *between*
    delivery steps (never from inside :meth:`IQPathsService.at`
    callbacks, so strict-admission rejections stay catchable here).

    ``on_step`` (if given) fires after every completed delivery step
    with ``(k, t)`` — the just-finished step index and its session
    time.  The crash-safety layer hangs checkpoint writes and kill
    injection off this hook; the driver itself never blocks on it.
    """

    def __init__(
        self,
        service: IQPathsService,
        plans: list[SessionPlan],
        scenario: str = "adhoc",
        seed: int = 0,
        on_step: Optional[Callable[[int, float], None]] = None,
    ):
        names = [p.name for p in plans]
        if len(set(names)) != len(names):
            raise ConfigurationError("session plans must have unique names")
        self.service = service
        self.plans = sorted(plans, key=lambda p: (p.arrival_s, p.index))
        self.scenario = scenario
        self.seed = seed
        self.obs = service.obs
        self.on_step = on_step
        self._state = _RunState()

    @property
    def completed_steps(self) -> int:
        """Delivery steps finished so far (resume position)."""
        return self._state.k

    def run(self, duration: float) -> WorkloadReport:
        """Drive the full plan for ``duration`` seconds of session time.

        Resumable: after :meth:`load_state_dict`, the loop continues
        from the first step the checkpoint had not completed and the
        returned report is bit-identical to an uninterrupted run's.
        """
        with self.obs.prof.span("workload.run"):
            steps = self.begin(duration)
            self.advance_to(steps)
            return self.finalize(duration)

    def steps_for(self, duration: float) -> int:
        """How many delivery steps ``duration`` session seconds cover."""
        return int(round(duration / self.service.dt))

    def begin(self, duration: float) -> int:
        """Validate the run window and emit the start event; idempotent.

        Returns the total step count for ``duration``.  Callers that
        step the run in pieces call this once, then :meth:`advance_to`
        repeatedly, then :meth:`finalize`; :meth:`run` is exactly that
        sequence in one call.
        """
        service = self.service
        state = self._state
        steps = self.steps_for(duration)
        if state.k > steps:
            raise ConfigurationError(
                f"cannot run {duration}s ({steps} steps); "
                f"{state.k} steps already completed"
            )
        if steps - state.k > service.remaining_intervals:
            raise ConfigurationError(
                f"duration {duration}s needs {steps - state.k} more "
                f"intervals; realization has "
                f"{service.remaining_intervals} left"
            )
        if self.obs.enabled and state.k == 0:
            self.obs.trace.emit(
                service.now,
                Category.WORKLOAD,
                "workload_start",
                scenario=self.scenario,
                planned_sessions=len(self.plans),
                duration=duration,
            )
        return steps

    def advance_to(self, step: int) -> None:
        """Run churn steps until ``step`` of them have completed.

        A no-op when ``step`` steps are already done (the resume
        case); never rolls back.
        """
        state = self._state
        if step < state.k:
            raise ConfigurationError(
                f"cannot rewind to step {step}; "
                f"{state.k} steps already completed"
            )
        if step - state.k > self.service.remaining_intervals:
            raise ConfigurationError(
                f"advancing to step {step} needs {step - state.k} more "
                f"intervals; realization has "
                f"{self.service.remaining_intervals} left"
            )
        dt = self.service.dt
        prof = self.obs.prof
        if prof.enabled:
            step_span = prof.span("workload.step")
            for k in range(state.k, step):
                with step_span:
                    self._step_once(k, k * dt)
        else:
            for k in range(state.k, step):
                self._step_once(k, k * dt)

    def finalize(self, duration: float) -> WorkloadReport:
        """Close out the run and build the deterministic report."""
        service = self.service
        state = self._state
        # Run over: close whatever is still open, marked truncated.
        for name in sorted(
            state.open_sessions, key=lambda n: state.records[n].index
        ):
            state.records[name].truncated = True
            self._close(name, state.records[name], state.open_sessions)
        report = self._finalize(
            state.records, state.tenants, duration, state.peak_concurrent
        )
        if self.obs.enabled:
            self.obs.trace.emit(
                service.now,
                Category.WORKLOAD,
                "workload_end",
                scenario=self.scenario,
                offered=report.offered,
                admitted=report.admitted,
                degraded=report.degraded,
                rejected=report.rejected,
                violation_rate=report.violation_rate,
            )
        return report

    def _step_once(self, k: int, t: float) -> None:
        """One churn step: expire departures, admit arrivals, deliver."""
        service = self.service
        state = self._state
        while state.departures and state.departures[0][0] <= t:
            _, _, name = heapq.heappop(state.departures)
            self._close(name, state.records[name], state.open_sessions)
        while (
            state.next_plan < len(self.plans)
            and self.plans[state.next_plan].arrival_s <= t
        ):
            plan = self.plans[state.next_plan]
            state.next_plan += 1
            record = self._arrive(plan, state.tenants)
            state.records[plan.name] = record
            if record.outcome != "rejected":
                state.open_sessions.add(plan.name)
                heapq.heappush(
                    state.departures,
                    (
                        record.opened_at + plan.holding_s,
                        plan.index,
                        plan.name,
                    ),
                )
        state.peak_concurrent = max(
            state.peak_concurrent, len(state.open_sessions)
        )
        service.advance(service.dt)
        if service.health is not None and service.shed_streams:
            newly_shed = (
                (service.shed_streams & state.open_sessions)
                - state.shed_seen
            )
            for name in sorted(newly_shed):
                state.shed_seen.add(name)
                state.records[name].shed = True
        state.k = k + 1
        if self.on_step is not None:
            self.on_step(k, t)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the driver's run state.

        Covers only the step loop (records, tenants, plan cursor); the
        service is snapshotted separately by
        :meth:`IQPathsService.state_dict`.  The plans themselves are a
        pure function of the scenario seed and are rebuilt on resume,
        and the records are exactly the plans before ``next_plan``, so
        only what the run determined of each is written
        (:func:`_pack_records`).  The open set, the departure heap and
        the shed set are functions of the records and are not written.
        """
        state = self._state
        return {
            "k": state.k,
            "records": _pack_records(list(state.records.values())),
            "tenants": [
                _account_state(a) for a in state.tenants.values()
            ],
            "next_plan": state.next_plan,
            "peak_concurrent": state.peak_concurrent,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (before :meth:`run`)."""
        if self._state.k != 0:
            raise ConfigurationError(
                "load_state_dict requires a fresh driver (run not started)"
            )
        next_plan = int(state["next_plan"])
        records = _unpack_records(state["records"], self.plans[:next_plan])
        # Open: arrived, not rejected and not closed yet.  Each pushed
        # the departure it still has on the heap, at the same float
        # time; the keys are unique, so the heap pops as the saved one.
        open_records = [
            r
            for r in records.values()
            if r.outcome != "rejected" and r.closed_at is None
        ]
        departures = [
            (r.opened_at + r.holding_s, r.index, r.name) for r in open_records
        ]
        heapq.heapify(departures)
        self._state = _RunState(
            k=int(state["k"]),
            records=records,
            tenants={
                a["tenant"]: _account_from_state(a)
                for a in state["tenants"]
            },
            departures=departures,
            next_plan=next_plan,
            open_sessions={r.name for r in open_records},
            shed_seen={r.name for r in records.values() if r.shed},
            peak_concurrent=int(state["peak_concurrent"]),
        )

    # ------------------------------------------------------------------
    # lifecycle steps
    # ------------------------------------------------------------------
    def _account(self, plan: SessionPlan, tenants) -> TenantAccount:
        account = tenants.get(plan.tenant)
        if account is None:
            account = TenantAccount(
                tenant=plan.tenant, priority=plan.priority
            )
            tenants[plan.tenant] = account
        return account

    def _arrive(
        self, plan: SessionPlan, tenants: dict[str, TenantAccount]
    ) -> SessionRecord:
        service = self.service
        account = self._account(plan, tenants)
        account.offered += 1
        if self.obs.enabled:
            self.obs.trace.emit(
                service.now,
                Category.WORKLOAD,
                "session_arrival",
                stream=plan.name,
                tenant=plan.tenant,
                template=plan.template,
            )
        record = SessionRecord(
            index=plan.index,
            name=plan.name,
            tenant=plan.tenant,
            template=plan.template,
            arrival_s=plan.arrival_s,
            holding_s=plan.holding_s,
            outcome="rejected",
        )
        try:
            handle = service.open_stream(plan.spec, tenant=plan.tenant)
        except AdmissionError:
            account.rejected += 1
            if self.obs.enabled:
                self.obs.trace.emit(
                    service.now,
                    Category.WORKLOAD,
                    "session_rejected",
                    stream=plan.name,
                    tenant=plan.tenant,
                )
            return record
        record.outcome = "admitted" if handle.admitted else "degraded"
        record.opened_at = service.now
        if handle.admitted:
            account.admitted += 1
        else:
            account.degraded += 1
        if self.obs.enabled:
            self.obs.trace.emit(
                service.now,
                Category.WORKLOAD,
                f"session_{record.outcome}",
                stream_id=handle.stream_id,
                stream=plan.name,
                tenant=plan.tenant,
            )
        return record

    def _close(
        self,
        name: str,
        record: SessionRecord,
        open_sessions: set[str],
    ) -> None:
        service = self.service
        # The close retires the stream: read its series first.
        stream_report = service.report(name)
        handle = service.close_stream(name)
        open_sessions.discard(name)
        record.closed_at = service.now
        record.mean_mbps = stream_report.mean_mbps
        record.attainment = stream_report.attainment
        spec = handle.spec
        if (
            record.outcome == "admitted"
            and spec.probability is not None
            and record.attainment is not None
            and record.attainment < spec.probability
        ):
            record.violated = True
        if self.obs.enabled:
            self.obs.trace.emit(
                service.now,
                Category.WORKLOAD,
                "session_close",
                stream_id=handle.stream_id,
                stream=name,
                tenant=record.tenant,
                outcome=record.outcome,
                truncated=record.truncated,
                mean_mbps=record.mean_mbps,
                attainment=record.attainment,
            )

    def _finalize(
        self,
        records: dict[str, SessionRecord],
        tenants: dict[str, TenantAccount],
        duration: float,
        peak_concurrent: int,
    ) -> WorkloadReport:
        dt = self.service.dt
        sessions = sorted(records.values(), key=lambda r: r.index)
        delivered_total = 0.0
        for record in sessions:
            account = tenants[record.tenant]
            if record.shed:
                account.shed += 1
            if record.violated:
                account.violations += 1
            if record.attainment is not None:
                account._attainments.append(record.attainment)
            if record.mean_mbps is not None and record.closed_at is not None:
                lifetime = (record.closed_at or 0.0) - (
                    record.opened_at or 0.0
                )
                megabits = record.mean_mbps * lifetime
                account.delivered_megabits += megabits
                delivered_total += megabits
        return WorkloadReport(
            scenario=self.scenario,
            seed=self.seed,
            dt=dt,
            duration=duration,
            offered=len(sessions),
            admitted=sum(1 for r in sessions if r.outcome == "admitted"),
            degraded=sum(1 for r in sessions if r.outcome == "degraded"),
            rejected=sum(1 for r in sessions if r.outcome == "rejected"),
            closed=sum(
                1
                for r in sessions
                if r.closed_at is not None and not r.truncated
            ),
            truncated=sum(1 for r in sessions if r.truncated),
            shed_sessions=sum(1 for r in sessions if r.shed),
            violations=sum(1 for r in sessions if r.violated),
            peak_concurrent=peak_concurrent,
            delivered_megabits=delivered_total,
            tenants=tenants,
            sessions=sessions,
        )


# ----------------------------------------------------------------------
# canonical merge (the cluster's determinism contract)
# ----------------------------------------------------------------------
#: Fields of a report payload that must agree across every partition
#: being merged (they describe the *run*, not one slice of it).
_MERGE_INVARIANTS = ("scenario", "seed", "dt", "duration")

#: Counter fields summed across partitions.
_MERGE_SUMS = (
    "offered",
    "admitted",
    "degraded",
    "rejected",
    "closed",
    "truncated",
    "shed_sessions",
    "violations",
    "peak_concurrent",
)


def merge_report_payloads(
    payloads: Mapping[str, Mapping[str, Any]],
) -> dict[str, Any]:
    """Canonically merge per-partition report payloads into one.

    ``payloads`` maps partition id (the tenant the slice simulated) to
    that slice's :meth:`WorkloadReport.to_dict` payload.  The merge is
    a pure function of the payload *bytes* — partitions are folded in
    sorted partition order, tenants re-sorted, sessions re-sorted by
    ``(tenant, index)`` — so any process that holds the same slice
    payloads produces the identical merged document regardless of how
    many shards computed them.  That is the cluster's determinism
    contract: shard count must never change output bytes.

    Notes on semantics: slices are *isolated* simulations, so summed
    fields are exact, while ``peak_concurrent`` is the sum of the
    per-slice peaks (an upper bound on any global instant — slices
    have no common instant to measure).  ``violation_rate`` is
    recomputed from the summed integer counters.
    """
    if not payloads:
        raise ConfigurationError("cannot merge zero report payloads")
    order = sorted(payloads)
    first = payloads[order[0]]
    for key in _MERGE_INVARIANTS:
        values = {
            partition: payloads[partition].get(key) for partition in order
        }
        if len(set(values.values())) != 1:
            raise ConfigurationError(
                f"cannot merge: partitions disagree on {key!r}: {values}"
            )
    merged: dict[str, Any] = {
        key: first[key] for key in _MERGE_INVARIANTS
    }
    merged["partitions"] = order
    for key in _MERGE_SUMS:
        merged[key] = sum(int(payloads[p][key]) for p in order)
    violated = (
        merged["rejected"] + merged["degraded"] + merged["violations"]
    )
    merged["violation_rate"] = _round6(
        violated / merged["offered"] if merged["offered"] else 0.0
    )
    # Folding already-rounded slice totals in sorted-partition order
    # keeps the float sum order-free in practice *and* bit-stable by
    # construction (same inputs, same order, same arithmetic).
    merged["delivered_megabits"] = _round6(
        sum(float(payloads[p]["delivered_megabits"] or 0.0) for p in order)
    )
    tenants: dict[str, Any] = {}
    sessions: list[dict[str, Any]] = []
    for partition in order:
        payload = payloads[partition]
        for tenant, account in payload.get("tenants", {}).items():
            if tenant in tenants:
                raise ConfigurationError(
                    f"cannot merge: tenant {tenant!r} appears in more "
                    f"than one partition"
                )
            tenants[tenant] = dict(account)
        sessions.extend(dict(s) for s in payload.get("sessions", ()))
    merged["tenants"] = {name: tenants[name] for name in sorted(tenants)}
    merged["sessions"] = sorted(
        sessions, key=lambda s: (s["tenant"], s["index"])
    )
    return merged


def merged_checksum(merged: Mapping[str, Any]) -> str:
    """Hex digest of a merged payload (same primitive as reports)."""
    return payload_digest(merged)
