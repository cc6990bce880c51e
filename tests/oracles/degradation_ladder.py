"""The re-submitting degradation ladder, kept as a test oracle.

:func:`repro.robustness.degradation.plan_degradation` runs its rungs as
edits of the admission controller's placement fold.  Its contract is
identity with the loop below, which asks :meth:`AdmissionController.try_admit`
about the whole stream set on every rung and lowers the stream each
rejection names.

``tests/property/test_degradation_ladder_oracle.py`` plans the same
stream sets both ways and asserts equal plans.  ``log``, when given,
collects one ``(submitted specs, rejected, hint, new spec)`` per rung
for the property's coverage checks.  :func:`renegotiate` is the same
loop with the policy left to a callback, the reference for
:meth:`AdmissionController.renegotiate` under any rung budget.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

from repro.core.admission import AdmissionController
from repro.core.mapping import PathQoSEstimate
from repro.core.spec import StreamSpec
from repro.errors import ConfigurationError
from repro.monitoring.cdf import EmpiricalCDF
from repro.robustness.degradation import (
    FALLBACK_DOWNGRADE,
    MAX_PROBABILITY,
    MIN_PROBABILITY,
    DegradationLevel,
    DegradationPlan,
)


def _demote_to_elastic(spec: StreamSpec) -> StreamSpec:
    return replace(
        spec,
        probability=None,
        max_violation_rate=None,
        elastic=True,
        nominal_mbps=spec.nominal_mbps or spec.required_mbps,
    )


def plan_degradation(
    specs: Sequence[StreamSpec],
    cdfs: Mapping[str, EmpiricalCDF],
    tw: float,
    quarantine_active: bool = False,
    admission: Optional[AdmissionController] = None,
    qos: Optional[Mapping[str, PathQoSEstimate]] = None,
    log: Optional[list] = None,
) -> DegradationPlan:
    if not cdfs:
        raise ConfigurationError("at least one usable path CDF is required")
    admission = admission or AdmissionController(tw=tw)
    notes: list[str] = []
    guaranteed = [
        s for s in specs
        if s.guaranteed or s.max_violation_rate is not None
    ]
    elastic_only = [
        s for s in specs
        if not (s.guaranteed or s.max_violation_rate is not None)
    ]

    decision = admission.try_admit(list(specs), cdfs, qos)
    if decision.admitted and not quarantine_active:
        return DegradationPlan(
            level=DegradationLevel.NORMAL, serve=tuple(specs)
        )

    shed = tuple(s.name for s in elastic_only)
    if shed:
        notes.append(f"shed elastic: {', '.join(shed)}")
    if decision.admitted:
        return DegradationPlan(
            level=DegradationLevel.SHED_ELASTIC,
            serve=tuple(guaranteed),
            shed=shed,
            notes=tuple(notes),
        )

    current = {s.name: s for s in guaranteed}
    downgraded: dict[str, Optional[float]] = {}
    rejections: dict[str, int] = {}
    for _ in range(2 * len(guaranteed) + 1):
        submitted = list(current.values())
        verdict = admission.try_admit(submitted, cdfs, qos)
        if verdict.admitted:
            break
        name = verdict.rejected_stream
        spec = current[name]
        rejections[name] = rejections.get(name, 0) + 1
        hint = verdict.suggested_probability
        if (
            rejections[name] > 1
            or spec.probability is None
            or (hint is not None and hint < MIN_PROBABILITY)
        ):
            current[name] = _demote_to_elastic(spec)
            downgraded[name] = None
            notes.append(f"stripped guarantee of {name!r} (best-effort)")
        else:
            if hint is not None and hint < spec.probability:
                new_p = hint
            else:
                new_p = spec.probability * FALLBACK_DOWNGRADE
            new_p = min(max(new_p, MIN_PROBABILITY), MAX_PROBABILITY)
            current[name] = replace(spec, probability=new_p)
            downgraded[name] = new_p
            notes.append(
                f"downgraded {name!r}: P {spec.probability:.3f} -> "
                f"{new_p:.3f}"
            )
        if log is not None:
            log.append((submitted, name, hint, current[name]))
    return DegradationPlan(
        level=DegradationLevel.DOWNGRADED,
        serve=tuple(current[s.name] for s in guaranteed),
        shed=shed,
        downgraded=downgraded,
        notes=tuple(notes),
    )


def renegotiate(
    admission: AdmissionController,
    specs: Sequence[StreamSpec],
    cdfs: Mapping[str, EmpiricalCDF],
    qos: Optional[Mapping[str, PathQoSEstimate]],
    rung,
    rungs: int,
) -> list[StreamSpec]:
    current = {s.name: s for s in specs}
    for _ in range(rungs):
        verdict = admission.try_admit(list(current.values()), cdfs, qos)
        if verdict.admitted:
            break
        name = verdict.rejected_stream
        current[name] = rung(current[name], verdict.suggested_probability)
    return list(current.values())
