"""Capacity-envelope estimation fanned out across worker shards.

Each binary-search probe is one sharded cluster job; one fleet of
workers is reused for every probe, so the per-probe cost is the
simulation itself, not process spawning.  Because a cluster probe's
``(offered, violation_rate)`` is byte-identical to the in-process
partitioned run's, the search visits exactly the same probe sequence —
the envelope is still a pure function of ``(scenario, seed, ceiling,
bounds, iterations)`` and independent of the shard count.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.workload.envelope import CapacityEnvelope, estimate_envelope

from repro.cluster.master import ClusterMaster


def estimate_cluster_envelope(
    scenario_name: str,
    seed: int = 0,
    shards: int = 2,
    ceiling: float = 0.05,
    iterations: int = 6,
    probe_duration: float = 30.0,
    max_sessions: Optional[int] = None,
    epoch_s: float = 2.0,
    checkpoint_root: Optional[os.PathLike] = None,
    hang_timeout: float = 60.0,
    topology: Optional[str] = None,
) -> CapacityEnvelope:
    """:func:`repro.workload.envelope.estimate_envelope`, shard-fanned."""
    with ClusterMaster(
        scenario=scenario_name,
        seed=seed,
        shards=shards,
        epoch_s=epoch_s,
        max_sessions=max_sessions,
        checkpoint_root=checkpoint_root,
        hang_timeout=hang_timeout,
        topology=topology,
    ) as master:

        def probe(scale: float) -> tuple[int, float]:
            report = master.run(
                rate_scale=scale, duration=probe_duration
            )
            return report.offered, report.violation_rate

        return estimate_envelope(
            scenario_name,
            seed=seed,
            ceiling=ceiling,
            iterations=iterations,
            probe_duration=probe_duration,
            max_sessions=max_sessions,
            probe_fn=probe,
            topology=topology,
        )
