"""Experiment harness.

* :mod:`repro.harness.experiment` — the interval-driven experiment runner
  shared by every figure: schedulers emit requests, paths water-fill,
  backlogs evolve, throughput is recorded.
* :mod:`repro.harness.metrics` — the paper's evaluation metrics
  (percentile-of-time throughput, deadline/frame jitter, std deviations).
* :mod:`repro.harness.report` — ASCII rendering of figures as tables and
  series.
* :mod:`repro.harness.figures` — one module per paper figure, each
  returning a structured result with paper-vs-measured rows.
* :mod:`repro.harness.chaos` — chaos campaigns against the middleware:
  time-to-detect, time-to-recover, guarantee-violation seconds.
* :mod:`repro.harness.cli` — ``python -m repro.harness fig9 --seed 7``.
"""

from repro.harness.chaos import ChaosReport, run_chaos_campaign
from repro.harness.experiment import ExperimentResult, run_schedule_experiment
from repro.harness.metrics import StreamSummary, frame_jitter_ms, summarize_stream

__all__ = [
    "ExperimentResult",
    "run_schedule_experiment",
    "StreamSummary",
    "summarize_stream",
    "frame_jitter_ms",
    "ChaosReport",
    "run_chaos_campaign",
]
