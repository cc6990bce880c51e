"""Capacity-envelope estimation: the max sustainable arrival rate.

The paper's admission controller answers "does *this* stream fit?"; the
envelope answers the operator's question one level up: "how much
session churn can the overlay sustain before it starts failing
sessions?"  :func:`estimate_envelope` binary-searches the arrival-rate
scale factor of a scenario for the largest load whose
:attr:`~repro.workload.driver.WorkloadReport.violation_rate` (rejected
+ degraded + missed-guarantee sessions, over offered) stays under a
ceiling.

Every probe is one full deterministic churn run, so the whole search is
a pure function of ``(scenario, seed, ceiling, bounds, iterations)`` —
which is what lets envelope estimates run as cached
:mod:`repro.runner` specs: re-running the suite replays the identical
probe sequence and hits the result cache on every one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.errors import ConfigurationError
from repro.runner.cache import payload_digest
from repro.workload.driver import WorkloadReport
from repro.workload.scenarios import make_scenario, run_scale_scenario


def _round6(value: float) -> float:
    return round(float(value), 6)


@dataclass(frozen=True)
class EnvelopeProbe:
    """One binary-search probe: a rate scale and what it produced."""

    rate_scale: float
    offered: int
    violation_rate: float
    sustainable: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "rate_scale": _round6(self.rate_scale),
            "offered": self.offered,
            "violation_rate": _round6(self.violation_rate),
            "sustainable": self.sustainable,
        }


@dataclass(frozen=True)
class CapacityEnvelope:
    """The search's verdict: the largest sustainable arrival-rate scale."""

    scenario: str
    seed: int
    ceiling: float
    base_rate: float
    probes: tuple[EnvelopeProbe, ...]
    max_sustainable_scale: float
    #: Generated-topology reference the probes ran on (``None`` =
    #: Figure-8; omitted from the payload then, preserving old bytes).
    topology: Optional[str] = None

    @property
    def max_sustainable_rate(self) -> float:
        """Sessions/second the overlay sustains under the ceiling."""
        return self.base_rate * self.max_sustainable_scale

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "ceiling": _round6(self.ceiling),
            "base_rate": _round6(self.base_rate),
            "max_sustainable_scale": _round6(self.max_sustainable_scale),
            "max_sustainable_rate": _round6(self.max_sustainable_rate),
            "probes": [p.to_dict() for p in self.probes],
        }
        if self.topology is not None:
            payload["topology"] = self.topology
        return payload

    def checksum(self) -> str:
        """Hex digest of the canonical payload (byte-identity probe)."""
        return payload_digest(self.to_dict())

    def render(self) -> str:
        where = (
            "" if self.topology is None else f" on {self.topology}"
        )
        lines = [
            f"capacity envelope for {self.scenario!r}{where} "
            f"(seed={self.seed}, ceiling={self.ceiling:.3f}):",
            f"  max sustainable scale = "
            f"{self.max_sustainable_scale:.4f} "
            f"(~{self.max_sustainable_rate:.2f} sessions/s)",
        ]
        for probe in self.probes:
            verdict = "ok" if probe.sustainable else "over"
            lines.append(
                f"  probe scale={probe.rate_scale:.4f}: "
                f"offered={probe.offered} "
                f"violation_rate={probe.violation_rate:.4f} [{verdict}]"
            )
        return "\n".join(lines)


def estimate_envelope(
    scenario_name: str,
    seed: int = 0,
    ceiling: float = 0.05,
    lo_scale: float = 0.125,
    hi_scale: float = 4.0,
    iterations: int = 6,
    probe_duration: float = 30.0,
    max_sessions: Optional[int] = None,
    resume_probes: Optional[Mapping[float, Mapping[str, Any]]] = None,
    on_probe: Optional[Callable[[EnvelopeProbe], None]] = None,
    topology: Optional[str] = None,
) -> CapacityEnvelope:
    """Binary-search the max sustainable arrival-rate scale.

    The search brackets on ``[lo_scale, hi_scale]``: the two endpoints
    are probed first (so the caller learns if the whole bracket is
    under or over the ceiling), then ``iterations`` bisections narrow
    it.  ``probe_duration`` truncates each probe run — capacity is a
    rate property, so shorter runs trade confidence for speed.

    Probe-granular resume: the bisection path is a deterministic
    function of probe verdicts, so a crashed search restarts exactly by
    replaying finished probes from a journal.  ``on_probe`` fires after
    each *computed* probe (the checkpoint layer appends it to the
    journal); ``resume_probes`` maps ``rate_scale`` to a previously
    journaled probe dict — probes found there are reused without
    rerunning (and ``on_probe`` does not fire for them).
    """
    if not 0 < ceiling < 1:
        raise ConfigurationError(
            f"ceiling must be in (0, 1), got {ceiling}"
        )
    if not 0 < lo_scale < hi_scale:
        raise ConfigurationError(
            f"need 0 < lo_scale < hi_scale, got {lo_scale}, {hi_scale}"
        )
    if iterations < 1:
        raise ConfigurationError(
            f"iterations must be >= 1, got {iterations}"
        )
    scenario = make_scenario(
        scenario_name, duration=probe_duration, topology=topology
    )
    base_rate = scenario.model.mean_rate()

    probes: list[EnvelopeProbe] = []

    def probe(scale: float) -> bool:
        if resume_probes is not None and scale in resume_probes:
            journaled = resume_probes[scale]
            entry = EnvelopeProbe(
                rate_scale=scale,
                offered=int(journaled["offered"]),
                violation_rate=float(journaled["violation_rate"]),
                sustainable=bool(journaled["sustainable"]),
            )
            probes.append(entry)
            return entry.sustainable
        report = run_scale_scenario(
            scenario.scaled(scale), seed=seed, max_sessions=max_sessions
        )
        ok = report.violation_rate <= ceiling and report.offered > 0
        entry = EnvelopeProbe(
            rate_scale=scale,
            offered=int(report.offered),
            violation_rate=_round6(report.violation_rate),
            sustainable=ok,
        )
        probes.append(entry)
        if on_probe is not None:
            on_probe(entry)
        return ok

    lo_ok = probe(lo_scale)
    hi_ok = probe(hi_scale)
    if not lo_ok:
        # Even the lightest load violates: report zero capacity.
        best = 0.0
    elif hi_ok:
        # The heaviest probe sustains: the envelope is off-bracket.
        best = hi_scale
    else:
        lo, hi = lo_scale, hi_scale
        for _ in range(iterations):
            mid = (lo + hi) / 2
            if probe(mid):
                lo = mid
            else:
                hi = mid
        best = lo
    return CapacityEnvelope(
        scenario=scenario_name,
        seed=seed,
        ceiling=ceiling,
        base_rate=base_rate,
        probes=tuple(probes),
        max_sustainable_scale=best,
        topology=scenario.topology,
    )
