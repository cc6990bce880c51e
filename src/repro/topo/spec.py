"""Topology specs: the canonical identity of a generated instance.

A :class:`TopoSpec` is the *complete* recipe for one topology instance
— family, sorted parameters, seed, traffic scenario, and overlay path
count — in the REPETITA spirit of named, repeatable experiment
instances: anyone holding the spec rebuilds the byte-identical
topology, and :func:`TopoSpec.checksum` is the short proof.

Specs travel the stack as strings (scenario fields, runner spec
params): either a preset name from
:data:`PRESETS` (``fat_tree_k4``) or ``preset:traffic``
(``fat_tree_k4:dc-incast``) to override the traffic scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.runner.cache import payload_digest
from repro.topo.traffic import TRAFFIC_SCENARIOS


@dataclass(frozen=True)
class TopoSpec:
    """One generated-topology instance, reproducible from this alone.

    Attributes
    ----------
    family:
        Generator family name (``fat_tree`` / ``leaf_spine`` /
        ``repetita_wan``).
    params:
        Family parameters as a sorted tuple of ``(name, value)`` pairs
        — tuple, not dict, so specs are hashable and canonical.
    seed:
        Structure seed.  Only the random-WAN family draws from it, but
        it is part of every instance's identity.
    traffic:
        Cross-traffic scenario (see
        :data:`repro.topo.traffic.TRAFFIC_SCENARIOS`).
    n_paths:
        Node-disjoint overlay paths extracted between server and client.
    """

    family: str
    params: tuple[tuple[str, Any], ...]
    seed: int = 0
    traffic: str = "nlanr"
    n_paths: int = 2

    def __post_init__(self):
        if self.traffic not in TRAFFIC_SCENARIOS:
            raise ConfigurationError(
                f"unknown traffic scenario {self.traffic!r}; "
                f"known: {list(TRAFFIC_SCENARIOS)}"
            )
        if self.n_paths < 1:
            raise ConfigurationError(
                f"n_paths must be >= 1, got {self.n_paths}"
            )

    @classmethod
    def make(
        cls,
        family: str,
        seed: int = 0,
        traffic: str = "nlanr",
        n_paths: int = 2,
        **params: Any,
    ) -> "TopoSpec":
        """Build a spec with keyword parameters (sorted canonically)."""
        return cls(
            family=family,
            params=tuple(sorted(params.items())),
            seed=seed,
            traffic=traffic,
            n_paths=n_paths,
        )

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def with_traffic(self, traffic: str) -> "TopoSpec":
        """The same instance under a different traffic scenario."""
        return replace(self, traffic=traffic)

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON form (checksums, runner params, docs)."""
        return {
            "family": self.family,
            "params": self.param_dict(),
            "seed": self.seed,
            "traffic": self.traffic,
            "n_paths": self.n_paths,
        }

    def checksum(self) -> str:
        """Digest of the spec identity (not the built structure)."""
        return payload_digest(self.to_dict())

    def label(self) -> str:
        """Short human-readable tag (report renders, spec names)."""
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({params})@{self.traffic}"


#: Named presets — one per family plus scaled-up variants.  The three
#: the acceptance criteria (and CI's topo-smoke) exercise directly are
#: ``fat_tree_k4``, ``leaf_spine_4x8``, and ``repetita_wan_s0``.
PRESETS: dict[str, TopoSpec] = {
    "fat_tree_k4": TopoSpec.make("fat_tree", k=4),
    "fat_tree_k8": TopoSpec.make("fat_tree", k=8, n_paths=4),
    "leaf_spine_4x8": TopoSpec.make(
        "leaf_spine", n_spine=4, n_leaf=8, hosts_per_leaf=4, n_paths=4
    ),
    "leaf_spine_2x4": TopoSpec.make(
        "leaf_spine", n_spine=2, n_leaf=4, hosts_per_leaf=2
    ),
    "repetita_wan_s0": TopoSpec.make(
        "repetita_wan", n_nodes=12, chords=4, seed=0
    ),
    "repetita_wan_s1": TopoSpec.make(
        "repetita_wan", n_nodes=12, chords=4, seed=1
    ),
}


def parse_topology(text: str) -> TopoSpec:
    """Parse a topology string: ``preset`` or ``preset:traffic``."""
    name, sep, traffic = text.partition(":")
    spec = PRESETS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown topology preset {name!r}; "
            f"known: {sorted(PRESETS)} "
            f"(append ':<traffic>' to override the traffic scenario)"
        )
    if sep:
        spec = spec.with_traffic(traffic)
    return spec


def resolve_topology(
    value: Union[None, str, TopoSpec, Mapping[str, Any]]
) -> Optional[TopoSpec]:
    """Normalize any accepted topology reference to a spec (or None)."""
    if value is None or isinstance(value, TopoSpec):
        return value
    if isinstance(value, str):
        return parse_topology(value)
    if isinstance(value, Mapping):
        return TopoSpec.make(
            value["family"],
            seed=int(value.get("seed", 0)),
            traffic=str(value.get("traffic", "nlanr")),
            n_paths=int(value.get("n_paths", 2)),
            **dict(value.get("params", {})),
        )
    raise ConfigurationError(
        f"cannot interpret topology reference {value!r}"
    )
