"""Stable tenant-to-shard assignment via rendezvous hashing.

The partition unit is the *tenant*: one tenant's sessions always
simulate together (they share admission interactions and per-tenant
accounting), and each tenant's slice is a pure function of
``(seed, scenario, tenant)`` — so *where* it runs can never change
*what* it computes.  Shard assignment only has to be deterministic and
reasonably spread; rendezvous (highest-random-weight) hashing gives
both, plus minimal movement when the shard count changes.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.errors import ConfigurationError

#: Hash namespace, versioned.  The suffix was chosen so the default
#: catalog's three tenants split 2/1 at two shards and land on three
#: distinct shards at four — changing it reshuffles every deployment's
#: tenant placement (never its results).
SALT = "repro-cluster:v3"


def _score(partition: str, shard: int) -> int:
    digest = hashlib.sha256(
        f"{SALT}|{partition}|{shard}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def shard_of(partition: str, shards: int) -> int:
    """The shard owning ``partition`` under ``shards``-way hashing."""
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if not partition:
        raise ConfigurationError("partition must be non-empty")
    return max(range(shards), key=lambda s: (_score(partition, s), -s))


def partition_map(
    partitions: Iterable[str], shards: int
) -> dict[int, list[str]]:
    """Group partitions by owning shard: ``{shard: sorted partitions}``.

    Only shards that own at least one partition appear — the master
    never spawns an idle worker.
    """
    owners: dict[int, list[str]] = {}
    seen: set[str] = set()
    for partition in partitions:
        if partition in seen:
            raise ConfigurationError(
                f"duplicate partition {partition!r}"
            )
        seen.add(partition)
        owners.setdefault(shard_of(partition, shards), []).append(partition)
    return {shard: sorted(owned) for shard, owned in sorted(owners.items())}
