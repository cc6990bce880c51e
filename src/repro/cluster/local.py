"""The in-process baseline the cluster must match byte for byte.

:func:`run_partitioned` executes every partition slice sequentially in
the calling process and merges the results exactly the way the master
does.  It defines the *reference bytes*: a cluster run at any shard
count must produce a merged payload identical to this function's for
the same ``(scenario, seed)`` — the property the determinism suite,
the CI smoke job, and the benchmark all assert.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.context import Observability
from repro.workload.scenarios import (
    make_scale_run,
    make_scenario,
    partition_ids,
)

from repro.cluster.report import ClusterReport, cluster_report_from_payloads


def run_partitioned(
    scenario_name: str,
    seed: int = 0,
    rate_scale: float = 1.0,
    duration: Optional[float] = None,
    max_sessions: Optional[int] = None,
    obs: Optional[Observability] = None,
    topology: Optional[str] = None,
) -> ClusterReport:
    """Run all partition slices in-process and merge them (the baseline)."""
    scenario = make_scenario(
        scenario_name,
        rate_scale=rate_scale,
        duration=duration,
        topology=topology,
    )
    payloads = {}
    for partition in partition_ids():
        driver = make_scale_run(
            scenario,
            seed=seed,
            max_sessions=max_sessions,
            obs=obs,
            partition=partition,
        )
        payloads[partition] = driver.run(scenario.duration).to_dict()
    return cluster_report_from_payloads(
        payloads,
        shards=0,
        telemetry={"mode": "in-process"},
    )
