"""Graceful-degradation policy for a degraded or partitioned overlay.

When path failures shrink the usable overlay, the full workload may no
longer be admittable at its requested guarantees.  The paper's admission
upcall ("reduce its bandwidth requirement, e.g. from 95% to 90%")
prescribes the renegotiation direction; this module turns it into an
automatic, ordered shedding policy:

1. **Shed elastic streams first.**  While any path is quarantined, the
   best-effort/elastic streams are paused so the surviving capacity (and
   the recovery probe traffic) is isolated for the guaranteed streams.
2. **Downgrade guarantees before dropping streams.**  A guaranteed
   stream that no longer fits is re-offered at the probability the
   overlay *can* deliver (the admission controller's renegotiation
   hint); a stream that fails even that is converted to elastic
   best-effort service — it keeps flowing, it just loses its guarantee.
3. **Never drop.**  Streams stay open throughout; the plan only changes
   *how* they are served.

The policy is pure: :func:`plan_degradation` maps the open stream set
and the usable paths' bandwidth CDFs to a :class:`DegradationPlan`;
:class:`repro.middleware.service.IQPathsService` applies and reverses
plans as path health changes.

The ladder is one sweep over the placement fold's precedence order
(:meth:`repro.core.admission.AdmissionController.renegotiate`): a rung
places only what its downgrade changed, and a rung whose answer the
partial solve before it already gave places nothing.  The plans are
those of asking :meth:`~repro.core.admission.AdmissionController.try_admit`
about the whole set on every rung.  Given the plan before it, a plan
takes a rung that plan took on the same requested spec with that
plan's spec object rather than an equal new one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from repro.core.admission import AdmissionController
from repro.core.mapping import PathQoSEstimate
from repro.core.spec import StreamSpec
from repro.errors import ConfigurationError
from repro.monitoring.cdf import EmpiricalCDF

#: Downgraded probabilities are clamped into this band.
MIN_PROBABILITY = 0.05
MAX_PROBABILITY = 0.995

#: Without a renegotiation hint, each downgrade multiplies P by this.
FALLBACK_DOWNGRADE = 0.8


class DegradationLevel(enum.IntEnum):
    """How far the service has stepped down from full guarantees."""

    NORMAL = 0
    SHED_ELASTIC = 1
    DOWNGRADED = 2


@dataclass(frozen=True)
class DegradationPlan:
    """The serving plan for the current overlay condition.

    Attributes
    ----------
    level:
        The rung of the degradation ladder the plan sits on.
    serve:
        The specs to keep in the scheduler, with any downgrades applied.
    shed:
        Names of elastic streams paused (not scheduled at all).
    downgraded:
        Per downgraded stream, its new probability — ``None`` means the
        guarantee was stripped and the stream rides as elastic
        best-effort.
    notes:
        Human-readable log of every decision the planner took.
    """

    level: DegradationLevel
    serve: tuple[StreamSpec, ...]
    shed: tuple[str, ...] = ()
    downgraded: Mapping[str, Optional[float]] = None
    notes: tuple[str, ...] = ()
    #: Per rung the planner took, ``(name, new P or None)`` -> (the
    #: requested spec, the spec it was lowered to, the note): what the
    #: next plan may reuse.
    _lowered: Mapping[tuple, tuple[StreamSpec, StreamSpec, str]] = field(
        default=None, repr=False, compare=False
    )
    #: ``serve`` by stream name, built once: applying a plan asks for
    #: every open stream's spec.
    _serve_by_name: Mapping[str, StreamSpec] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.downgraded is None:
            object.__setattr__(self, "downgraded", {})
        if self._lowered is None:
            object.__setattr__(self, "_lowered", {})
        object.__setattr__(
            self, "_serve_by_name", {s.name: s for s in self.serve}
        )

    def spec_for(self, name: str) -> Optional[StreamSpec]:
        """The (possibly downgraded) spec the plan serves, or ``None`` if shed."""
        return self._serve_by_name.get(name)


def _demote_to_elastic(spec: StreamSpec) -> StreamSpec:
    """Strip a stream's guarantee: serve it as elastic best-effort."""
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
    previous: Optional[DegradationPlan] = None,
) -> DegradationPlan:
    """Plan how to serve ``specs`` over the paths described by ``cdfs``.

    Parameters
    ----------
    specs:
        The open streams at their *original* (requested) specifications.
    cdfs:
        Bandwidth CDFs of the currently usable (non-quarantined) paths.
    tw:
        Scheduling-window length for admission mapping; must equal
        ``admission.tw`` when a controller is given.
    quarantine_active:
        Whether any path is currently quarantined.  While true, elastic
        streams are shed even if the guarantees still fit — the freed
        capacity isolates the guaranteed streams and the recovery probes.
    admission:
        Admission controller to reuse (a fresh one per call otherwise).
        Its fold ends holding the ladder's placements, so the
        scheduler's next remap on it starts from them.
    qos:
        Monitored RTT/loss levels of the usable paths, held against the
        streams' ``max_rtt_ms`` / ``max_loss_rate`` ceilings exactly as
        the scheduler's remap holds them.
    previous:
        The plan served until now: a rung it took on the same requested
        spec object reuses its lowered spec.  The plan is the same
        with or without it.
    """
    if not cdfs:
        raise ConfigurationError("at least one usable path CDF is required")
    if admission is None:
        admission = AdmissionController(tw=tw)
    elif admission.tw != tw:
        raise ConfigurationError(
            f"tw={tw} differs from the admission controller's "
            f"tw={admission.tw}"
        )
    notes: list[str] = []
    # A key is what a probability or a violation bound gives a spec.
    guaranteed = [s for s in specs if s.mapping_precedence is not None]
    elastic_only = [s for s in specs if s.mapping_precedence is None]

    fits = admission.fits(specs, cdfs, qos)
    if fits and not quarantine_active:
        return DegradationPlan(
            level=DegradationLevel.NORMAL, serve=tuple(specs)
        )

    # Rung 1: shed elastic streams (recovery isolation / infeasibility).
    shed = tuple(s.name for s in elastic_only)
    if shed:
        notes.append(f"shed elastic: {', '.join(shed)}")
    if fits:
        return DegradationPlan(
            level=DegradationLevel.SHED_ELASTIC,
            serve=tuple(guaranteed),
            shed=shed,
            notes=tuple(notes),
        )

    # Rung 2: downgrade guarantees until the set fits.  First rejection
    # lowers the stream to the overlay's renegotiation hint; a second
    # rejection strips the guarantee entirely (elastic best-effort).
    current = {s.name: s for s in guaranteed}
    requested = dict(current)
    downgraded: dict[str, Optional[float]] = {}
    rejections: dict[str, int] = {}
    lowered: dict[tuple, tuple[StreamSpec, StreamSpec, str]] = {}
    reusable = {} if previous is None else previous._lowered

    def rung(spec: StreamSpec, hint: Optional[float]) -> StreamSpec:
        name = spec.name
        rejections[name] = rejections.get(name, 0) + 1
        if (
            rejections[name] > 1
            or spec.probability is None  # violation-bound: no P to lower
            or (hint is not None and hint < MIN_PROBABILITY)
        ):
            new_p = None
        else:
            if hint is not None and hint < spec.probability:
                new_p = hint
            else:
                new_p = spec.probability * FALLBACK_DOWNGRADE
            new_p = min(max(new_p, MIN_PROBABILITY), MAX_PROBABILITY)
        downgraded[name] = new_p
        # A strip is a function of the requested spec, and so is a
        # downgrade (the first rejection's spec is the requested one)
        # with its new P.
        original = requested[name]
        key = (name, new_p)
        taken = reusable.get(key)
        if taken is None or taken[0] is not original:
            if new_p is None:
                new = _demote_to_elastic(spec)
                note = f"stripped guarantee of {name!r} (best-effort)"
            else:
                new = replace(spec, probability=new_p)
                note = (
                    f"downgraded {name!r}: P {spec.probability:.3f} -> "
                    f"{new_p:.3f}"
                )
            taken = (original, new, note)
        lowered[key] = taken
        notes.append(taken[2])
        current[name] = new = taken[1]
        return new

    admission.renegotiate(
        list(current.values()), cdfs, qos, rung, 2 * len(guaranteed) + 1
    )
    return DegradationPlan(
        level=DegradationLevel.DOWNGRADED,
        serve=tuple(current[s.name] for s in guaranteed),
        shed=shed,
        downgraded=downgraded,
        notes=tuple(notes),
        _lowered=lowered,
    )
