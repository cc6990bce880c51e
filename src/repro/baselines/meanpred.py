"""Mean-prediction scheduler: the PGOS ablation.

Identical in structure to PGOS — pick paths for guaranteed streams first,
let elastic traffic fill the rest at lower priority — but path selection
treats the EWMA *mean* prediction as the path's deterministic capacity,
exactly the assumption the paper argues is broken ("they require exact
values of end-to-end bandwidth, which are hard to attain").

Comparing this against PGOS isolates the contribution of the *statistical*
prediction from the contribution of the priority/overlay machinery; the
``ablations`` figure (``python -m repro.harness ablations``) reports both.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.scheduler import PathShareRequest, SchedulerBase
from repro.core.spec import StreamSpec
from repro.monitoring.predictors import EWMAPredictor


class MeanPredictionScheduler(SchedulerBase):
    """PGOS-shaped scheduler using mean instead of percentile prediction."""

    name = "MeanPred"

    def __init__(self, alpha: float = 0.25, headroom: float = 1.0):
        """``headroom`` < 1 derates the prediction (a common ad-hoc fix)."""
        self.alpha = alpha
        self.headroom = headroom
        self._predictors: dict[str, EWMAPredictor] = {}

    def setup(
        self,
        streams: Sequence[StreamSpec],
        path_names: Sequence[str],
        dt: float,
        tw: float,
    ) -> None:
        super().setup(streams, path_names, dt, tw)
        self._predictors = {
            p: EWMAPredictor(alpha=self.alpha) for p in path_names
        }

    def observe(
        self,
        interval: int,
        available_mbps: Mapping[str, float],
        rtt_ms: Optional[Mapping[str, float]] = None,
        loss_rate: Optional[Mapping[str, float]] = None,
    ) -> None:
        for path, mbps in available_mbps.items():
            predictor = self._predictors.get(path)
            if predictor is not None:
                predictor.update(mbps)

    def seed_history(self, samples: Mapping[str, Sequence[float]]) -> None:
        """Pre-load the mean predictors with probe-phase samples."""
        for path, series in samples.items():
            for s in series:
                self._predictors[path].update(s)

    def _predicted(self) -> dict[str, float]:
        out = {}
        for path, predictor in self._predictors.items():
            value = predictor.predict() if predictor.ready else 0.0
            out[path] = max(value, 0.0) * self.headroom
        return out

    def allocate(
        self, interval: int, backlog_mbps: Mapping[str, Optional[float]]
    ) -> dict[str, list[PathShareRequest]]:
        predicted = self._predicted()
        remaining = dict(predicted)
        requests: dict[str, list[PathShareRequest]] = {
            p: [] for p in self.path_names
        }
        guaranteed = sorted(
            (s for s in self.streams if s.guaranteed),
            key=lambda s: (-(s.probability or 0.0), -(s.required_mbps or 0.0)),
        )
        for spec in guaranteed:
            backlog = backlog_mbps.get(spec.name)
            need = spec.required_mbps
            if backlog is not None:
                need = min(backlog, need) if not spec.elastic else need
            # Single path if the predicted mean says it fits.
            fitting = [p for p in self.path_names if remaining[p] >= need]
            if fitting:
                best = max(fitting, key=lambda p: remaining[p])
                shares = {best: need}
            else:
                shares = {}
                todo = need
                for p in sorted(
                    self.path_names, key=lambda p: remaining[p], reverse=True
                ):
                    take = min(remaining[p], todo)
                    if take > 1e-12:
                        shares[p] = take
                        todo -= take
                if todo > 1e-12 and shares:
                    # Prediction says infeasible: overcommit the largest
                    # share proportionally (the stream still wants its rate).
                    top = max(shares, key=shares.get)
                    shares[top] += todo
                elif todo > 1e-12:
                    shares = {self.path_names[0]: need}
            for p, r in shares.items():
                remaining[p] = max(remaining[p] - r, 0.0)
                requests[p].append(
                    PathShareRequest(
                        stream=spec.name, demand_mbps=r, weight=r, level=0
                    )
                )
        for spec in self.streams:
            if not spec.elastic:
                continue
            backlog = backlog_mbps.get(spec.name)
            for p in self.path_names:
                weight = max(remaining[p], 1e-6)
                requests[p].append(
                    PathShareRequest(
                        stream=spec.name,
                        demand_mbps=backlog,
                        weight=weight,
                        level=1,
                    )
                )
        return requests
