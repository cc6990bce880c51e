"""Sharded master/worker control plane with byte-identical scale-out.

``repro.cluster`` runs one workload scenario across worker *processes*:
tenants are hashed onto shards (:mod:`~repro.cluster.partition`), each
worker runs its partitions' slices one after another through the
checkpointed run loop with partition-keyed seeds
(:mod:`~repro.cluster.worker`), and the master supervises them over a
length-prefixed framed protocol (:mod:`~repro.cluster.protocol`) with
checkpoint-backed respawn of dead shards and a canonical merge
(:mod:`~repro.cluster.report`).  Slices share no instant, so nothing
paces the workers against each other.

The contract that makes the parallelism safe: the merged report is a
pure function of ``(scenario, seed)`` — byte-identical across shard
counts, across re-runs, and to the in-process baseline
(:func:`run_partitioned`).  ``docs/cluster.md`` specifies the
protocol, the seed derivation, and the merge-determinism rules.
"""

from repro.cluster.local import run_partitioned
from repro.cluster.master import ClusterMaster
from repro.cluster.partition import partition_map, shard_of
from repro.cluster.protocol import PROTOCOL_VERSION
from repro.cluster.report import ClusterReport

__all__ = [
    "ClusterMaster",
    "ClusterReport",
    "PROTOCOL_VERSION",
    "partition_map",
    "run_partitioned",
    "shard_of",
]
