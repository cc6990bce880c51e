"""Baseline schedulers the paper compares PGOS against.

* :mod:`repro.baselines.wfq` — non-overlay (single path) weighted fair
  queuing, Figure 9a/10a.
* :mod:`repro.baselines.msfq` — Multi-Server Fair Queuing over multiple
  paths (Blanquer & Özden), driven by average-bandwidth prediction,
  Figure 9b/10b.
* :mod:`repro.baselines.optsched` — the near-optimal offline scheduler
  with a-priori knowledge of available bandwidth, Figure 9d/10d.
* :mod:`repro.baselines.meanpred` — a PGOS-shaped scheduler that uses mean
  prediction instead of percentile prediction (ablation).
"""

from repro.baselines.wfq import WFQScheduler
from repro.baselines.msfq import MSFQScheduler
from repro.baselines.optsched import OptSchedScheduler
from repro.baselines.meanpred import MeanPredictionScheduler

__all__ = [
    "WFQScheduler",
    "MSFQScheduler",
    "OptSchedScheduler",
    "MeanPredictionScheduler",
]
