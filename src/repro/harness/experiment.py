"""The interval-driven experiment runner.

One loop shared by every throughput figure in the paper.  Each interval
is one :func:`repro.core.scheduler.deliver_interval` — CBR accrual into
bounded backlogs, one scheduler allocation from past information only,
a per-path water-fill against the *realized* availability, grants capped
at the backlog: the same step the scalar test oracle
(``tests/oracles/scalar_service.py``) runs.  The scheduler then gets the
interval's measured availability as feedback.  The result records
per-(stream, path) throughput series — exactly the curves plotted in
Figures 9, 10, 12, and 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.scheduler import SchedulerBase, deliver_interval
from repro.core.spec import StreamSpec
from repro.monitoring.probe import ProbingEstimator
from repro.network.emulab import TestbedRealization


@dataclass
class ExperimentResult:
    """Recorded throughput of one scheduler run.

    Attributes
    ----------
    scheduler_name:
        Display name of the algorithm.
    dt:
        Measurement interval (seconds).
    stream_names, path_names:
        Dimension labels.
    delivered_mbps:
        ``delivered_mbps[stream][path]`` is the per-interval throughput
        series of that sub-stream (Mbps).
    available_mbps:
        The realized availability series per path over the same intervals.
    dropped_bytes:
        Bytes dropped per stream due to bounded buffers.
    """

    scheduler_name: str
    dt: float
    stream_names: list[str]
    path_names: list[str]
    delivered_mbps: dict[str, dict[str, np.ndarray]]
    available_mbps: dict[str, np.ndarray]
    dropped_bytes: dict[str, float] = field(default_factory=dict)

    @property
    def n_intervals(self) -> int:
        first = next(iter(self.available_mbps.values()))
        return len(first)

    @property
    def times(self) -> np.ndarray:
        """Interval start times, seconds from the experiment start."""
        return np.arange(self.n_intervals) * self.dt

    def stream_series(self, stream: str) -> np.ndarray:
        """Total per-interval throughput of ``stream`` across paths."""
        shares = self.delivered_mbps.get(stream)
        if not shares:
            raise ConfigurationError(f"unknown stream {stream!r}")
        total = np.zeros(self.n_intervals)
        for series in shares.values():
            total += series
        return total

    def substream_series(self, stream: str, path: str) -> np.ndarray:
        """Per-interval throughput of ``stream`` on ``path``."""
        shares = self.delivered_mbps.get(stream)
        if not shares or path not in shares:
            raise ConfigurationError(f"no sub-stream {stream!r} on {path!r}")
        return shares[path]

    def paths_used(self, stream: str, min_mbps: float = 0.1) -> list[str]:
        """Paths that ever carried a meaningful share of ``stream``."""
        shares = self.delivered_mbps.get(stream, {})
        return [
            p for p, series in shares.items() if float(series.max()) >= min_mbps
        ]

    def total_series(self) -> np.ndarray:
        """Aggregate throughput across all streams."""
        total = np.zeros(self.n_intervals)
        for stream in self.stream_names:
            total += self.stream_series(stream)
        return total


def run_schedule_experiment(
    scheduler: SchedulerBase,
    realization: TestbedRealization,
    streams: Sequence[StreamSpec],
    warmup_intervals: int = 100,
    tw: Optional[float] = None,
    probe: Optional["ProbingEstimator"] = None,
    probe_seed: Optional[int] = None,
) -> ExperimentResult:
    """Run one scheduler over one testbed realization.

    Parameters
    ----------
    scheduler:
        Any :class:`SchedulerBase`; OptSched must have its oracle set.
    realization:
        Per-path availability from :meth:`EmulabTestbed.realize`.
    streams:
        The stream specifications.
    warmup_intervals:
        Probe-phase length: the scheduler observes these intervals (filling
        monitors/predictors) but no application traffic is recorded.
    tw:
        Scheduling-window length; defaults to ``10 * dt`` (1 s at the
        default 0.1 s interval, the paper's operating point).
    probe:
        Optional :class:`repro.monitoring.probe.ProbingEstimator`: the
        scheduler then *observes* probe estimates of availability instead
        of the truth (delivery still uses the true series) — the realistic
        monitoring regime.
    probe_seed:
        Seed for the probe's noise RNG; defaults to the realization's
        seed.  Sweeps pass a per-point derived seed so probe noise is
        independent of execution order and worker assignment.
    """
    dt = realization.dt
    tw = tw if tw is not None else 10 * dt
    path_names = realization.path_names()
    avail = {
        p: realization.available[p].available_mbps for p in path_names
    }
    n_total = realization.n_intervals
    if warmup_intervals < 0 or warmup_intervals >= n_total:
        raise ConfigurationError(
            f"warmup_intervals {warmup_intervals} out of range for "
            f"{n_total} intervals"
        )

    qos = realization.qos
    observed = avail
    if probe is not None:
        observed = probe.perturb_realization(
            {p: avail[p] for p in path_names},
            seed=realization.seed if probe_seed is None else probe_seed,
        )

    def feed(k: int) -> None:
        scheduler.observe(
            k,
            {p: float(observed[p][k]) for p in path_names},
            rtt_ms={p: float(qos[p].rtt_ms[k]) for p in path_names},
            loss_rate={p: float(qos[p].loss_rate[k]) for p in path_names},
        )

    scheduler.setup(streams, path_names, dt, tw)
    for k in range(warmup_intervals):
        feed(k)

    n = n_total - warmup_intervals
    delivered = {
        s.name: {p: np.zeros(n) for p in path_names} for s in streams
    }
    backlog_bytes: dict[str, float] = {s.name: 0.0 for s in streams}
    dropped: dict[str, float] = {s.name: 0.0 for s in streams}
    for k in range(warmup_intervals, n_total):
        idx = k - warmup_intervals
        grants = deliver_interval(
            scheduler,
            k,
            streams,
            path_names,
            lambda p: float(avail[p][k]),
            dt,
            backlog_bytes,
            dropped,
        )
        for stream_name, shares in grants.items():
            series = delivered[stream_name]
            for p, mbps in shares.items():
                series[p][idx] = mbps
        feed(k)

    return ExperimentResult(
        scheduler_name=scheduler.name,
        dt=dt,
        stream_names=[s.name for s in streams],
        path_names=list(path_names),
        delivered_mbps=delivered,
        available_mbps={
            p: avail[p][warmup_intervals:].copy() for p in path_names
        },
        dropped_bytes=dropped,
    )
