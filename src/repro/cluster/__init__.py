"""Sharded scenario runs with byte-identical merges.

``repro.cluster`` runs one workload scenario as one task per tenant
partition on the runner's executor (:mod:`~repro.cluster.master`):
each task runs its partition's slice through the checkpointed run loop
with partition-keyed seeds, at most ``shards`` tasks at once, and the
executor supervises them (heartbeats, hang watchdog, SIGKILL,
checkpoint-backed retry).  The master then performs the canonical
merge (:mod:`~repro.cluster.report`).  Slices share no instant, so
nothing paces the tasks against each other.

The contract that makes the parallelism safe: the merged report is a
pure function of ``(scenario, seed)`` — byte-identical across shard
counts, across re-runs, and to the in-process baseline
(:func:`run_partitioned`).  ``docs/cluster.md`` specifies the seed
derivation, supervision and the merge-determinism rules.
"""

from repro.cluster.local import run_partitioned
from repro.cluster.master import ClusterMaster
from repro.cluster.report import ClusterReport

__all__ = [
    "ClusterMaster",
    "ClusterReport",
    "run_partitioned",
]
