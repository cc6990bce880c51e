"""Sharded master/worker control plane with byte-identical scale-out.

``repro.cluster`` runs one workload scenario across worker *processes*:
tenants are hashed onto shards (:mod:`~repro.cluster.partition`), each
worker simulates its partitions' slices with partition-keyed seeds
(:mod:`~repro.cluster.worker`), and the master coordinates them over a
length-prefixed framed protocol (:mod:`~repro.cluster.protocol`) with
barrier-synchronized virtual-time epochs, checkpoint-backed respawn of
dead shards, and a canonical merge (:mod:`~repro.cluster.report`).

The contract that makes the parallelism safe: the merged report is a
pure function of ``(scenario, seed)`` — byte-identical across shard
counts, across re-runs, and to the in-process baseline
(:func:`run_partitioned`).  ``docs/cluster.md`` specifies the
protocol, the seed derivation, and the merge-determinism rules.
"""

from repro.cluster.epochs import epoch_boundaries, epochs_completed
from repro.cluster.local import run_partitioned
from repro.cluster.master import ClusterMaster
from repro.cluster.partition import partition_map, shard_of
from repro.cluster.protocol import PROTOCOL_VERSION
from repro.cluster.report import ClusterReport

__all__ = [
    "ClusterMaster",
    "ClusterReport",
    "PROTOCOL_VERSION",
    "epoch_boundaries",
    "epochs_completed",
    "partition_map",
    "run_partitioned",
    "shard_of",
]
