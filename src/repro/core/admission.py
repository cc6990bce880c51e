"""Runtime admission control.

The paper: "If this still fails due to limited bandwidth, an upcall is made
to inform the application that it is not possible to schedule this
particular stream.  The application can reduce its bandwidth requirement
(e.g., from 95% to 90%) or try to adjust its behavior."

:class:`AdmissionController` packages this protocol: it attempts the full
resource mapping, and on failure reports *which* stream did not fit
together with the best probability the overlay could actually offer it —
the hint the application needs to renegotiate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence

from repro.errors import AdmissionError, ConfigurationError
from repro.core.guarantees import residual_guarantee
from repro.core.mapping import (
    PathQoSEstimate,
    PlacementFold,
    ResourceMapping,
    compute_mapping,
    eligible_paths,
)
from repro.core.spec import StreamSpec
from repro.monitoring.cdf import EmpiricalCDF


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission attempt.

    ``admitted`` streams carry a ``mapping``; a rejection names the
    ``rejected_stream`` and, when possible, the ``suggested_probability``
    the overlay *can* guarantee for its bandwidth (the renegotiation hint).
    """

    admitted: bool
    mapping: Optional[ResourceMapping] = None
    rejected_stream: Optional[str] = None
    reason: str = ""
    suggested_probability: Optional[float] = None
    admitted_streams: tuple[str, ...] = field(default_factory=tuple)


_NAME = attrgetter("name")


class AdmissionController:
    """Admits stream sets against the current path distributions.

    A controller is asked again and again about nearly the same stream
    set — every open re-asks about the standing population, a rejection
    is followed by the partial solve without the rejected stream, each
    rung of the degradation ladder re-asks with one stream lowered — so
    it owns the one :class:`repro.core.mapping.PlacementFold` all of its
    solves run on.  :meth:`fits` asks only whether a set fits, and
    :meth:`renegotiate` runs a whole ladder of such questions as edits
    of the fold's order.
    """

    def __init__(self, tw: float = 1.0):
        if tw <= 0:
            raise ConfigurationError(f"tw must be positive, got {tw}")
        self.tw = tw
        self.fold = PlacementFold()

    def try_admit(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        qos: Mapping[str, PathQoSEstimate] | None = None,
    ) -> AdmissionDecision:
        """Attempt to admit all ``specs``; never raises on rejection.

        ``qos`` carries the monitored RTT/loss levels per path, exactly
        as :func:`repro.core.mapping.compute_mapping` takes them: pass
        what the scheduler's remap will see, or a stream with a
        ``max_rtt_ms`` / ``max_loss_rate`` ceiling is admitted onto a
        path the next remap may not place it on.
        """
        try:
            mapping = compute_mapping(
                specs, cdfs, self.tw, qos=qos, fold=self.fold
            )
        except AdmissionError as exc:
            return self._reject(specs, cdfs, qos, exc)
        return AdmissionDecision(
            admitted=True,
            mapping=mapping,
            admitted_streams=tuple(map(_NAME, specs)),
        )

    def fits(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        qos: Mapping[str, PathQoSEstimate] | None = None,
    ) -> bool:
        """:meth:`try_admit`'s ``admitted``, without the mapping, the
        partial solve and the hint a rejection would build."""
        return self.fold.fits(specs, cdfs, self.tw, qos)

    def renegotiate(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        qos: Mapping[str, PathQoSEstimate] | None,
        rung: Callable[[StreamSpec, Optional[float]], StreamSpec],
        rungs: int,
    ) -> list[StreamSpec]:
        """Re-offer ``specs`` until they fit, at most ``rungs`` times.

        Each time they do not, ``rung`` is handed the stream
        :meth:`try_admit` would reject and its ``suggested_probability``
        (``None`` unless every other stream fits without it), and what
        it returns takes the rejected stream's place.  Returns the specs
        after the last rung, in input order; names must be unique.  The
        answers are those of calling :meth:`try_admit` once per rung,
        but the rungs run as edits of the fold's precedence order
        (:meth:`repro.core.mapping.PlacementFold.renegotiate`): no set
        is submitted twice and no rejection raises.
        """

        def offer(spec, others):
            hint = None
            if others is not None:
                hint = self._best_offer(spec, cdfs, others, qos)
            return rung(spec, hint)

        return self.fold.renegotiate(
            specs, cdfs, self.tw, qos, offer, rungs
        )

    def _reject(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        qos: Mapping[str, PathQoSEstimate] | None,
        exc: AdmissionError,
    ) -> AdmissionDecision:
        rejected = exc.stream_name
        names = list(map(_NAME, specs))
        i = names.index(rejected)
        rejected_spec = specs[i]
        others = list(specs)
        del others[i], names[i]
        if rejected in names:
            # A name given twice: every spec of it goes.
            others = [s for s in others if s.name != rejected]
            names = [name for name in names if name != rejected]
        suggestion = None
        admitted_names: tuple[str, ...] = ()
        try:
            partial = compute_mapping(
                others, cdfs, self.tw, qos=qos, fold=self.fold
            )
            admitted_names = tuple(names)
            suggestion = self._best_offer(
                rejected_spec, cdfs, partial.rates_mbps, qos
            )
        except AdmissionError:
            # Even the remaining set does not fit; no hint available.
            partial = None
        return AdmissionDecision(
            admitted=False,
            mapping=partial,
            rejected_stream=rejected,
            reason=str(exc),
            suggested_probability=suggestion,
            admitted_streams=admitted_names,
        )

    def _best_offer(
        self,
        spec: StreamSpec,
        cdfs: Mapping[str, EmpiricalCDF],
        promises: Mapping[str, Mapping[str, float]],
        qos: Mapping[str, PathQoSEstimate] | None,
    ) -> Optional[float]:
        """Best single-path probability for ``spec`` next to the other
        streams' ``promises`` (a partial solve's ``rates_mbps``), over
        the paths whose RTT/loss levels meet its ceilings."""
        if spec.required_mbps is None:
            return None
        # One pass over the promises, every path's rates collected in
        # stream order; summing a path's own rates equals summing them
        # interleaved with the 0.0 of the streams that avoid the path.
        promised: dict[str, list[float]] = {path: [] for path in cdfs}
        for shares in promises.values():
            for path, rate in shares.items():
                promised[path].append(rate)
        best = 0.0
        for path in eligible_paths(spec, list(cdfs), qos):
            best = max(
                best,
                residual_guarantee(
                    cdfs[path], sum(promised[path]), spec.required_mbps
                ),
            )
        return best if best > 0 else None
