"""Overlay meshes: logical links with independent availability.

A *logical link* connects two overlay nodes (server, router daemon, or
client) across the underlay; its available bandwidth varies per interval
like any underlay path's.  An :class:`OverlayMesh` is the graph of such
links plus their realizations, with route discovery and the bottleneck
composition used by end-to-end scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.sim.random import RandomStreams
from repro.traces.nlanr import PROFILES, CrossTrafficProfile

#: Logical links default to fast-ethernet capacity like the testbed.
DEFAULT_CAPACITY_MBPS = 100.0


@dataclass(frozen=True)
class LogicalLink:
    """A directed overlay-level link with its own cross-traffic profile."""

    src: str
    dst: str
    profile: CrossTrafficProfile
    capacity_mbps: float = DEFAULT_CAPACITY_MBPS

    def __post_init__(self):
        if not self.src or not self.dst or self.src == self.dst:
            raise ConfigurationError(
                f"bad logical link endpoints {self.src!r}->{self.dst!r}"
            )
        if self.capacity_mbps <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity_mbps}"
            )

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    def realize(
        self, n: int, streams: RandomStreams
    ) -> np.ndarray:
        """Available bandwidth per interval (Mbps) for this link."""
        rng = streams.fresh(f"overlay/{self.name}")
        cross = self.profile.sample(n, rng)
        return np.clip(self.capacity_mbps - cross, 0.0, self.capacity_mbps)


class OverlayMesh:
    """A set of overlay nodes joined by logical links."""

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._links: dict[tuple[str, str], LogicalLink] = {}

    def add_link(
        self,
        src: str,
        dst: str,
        profile: str | CrossTrafficProfile = "light",
        capacity_mbps: float = DEFAULT_CAPACITY_MBPS,
    ) -> LogicalLink:
        """Add a directed logical link (profiles by name or instance)."""
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError:
                raise ConfigurationError(
                    f"unknown profile {profile!r}; available: {sorted(PROFILES)}"
                ) from None
        link = LogicalLink(
            src=src, dst=dst, profile=profile, capacity_mbps=capacity_mbps
        )
        if (src, dst) in self._links:
            raise TopologyError(f"duplicate logical link {link.name}")
        self._links[(src, dst)] = link
        self._graph.add_edge(src, dst)
        return link

    @property
    def nodes(self) -> list[str]:
        return list(self._graph.nodes)

    @property
    def links(self) -> list[LogicalLink]:
        return list(self._links.values())

    def link(self, src: str, dst: str) -> LogicalLink:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no logical link {src}->{dst}") from None

    def routes(self, src: str, dst: str, k: int = 1) -> list[list[str]]:
        """Up to ``k`` node-disjoint routes (as node-name lists).

        Extraction is deterministic greedy shortest-route peeling with
        lexicographic tie-breaking (:mod:`repro.topo.paths`): a pure
        function of the mesh's *structure*, never of link insertion
        order.  ``networkx``'s max-flow decomposition — whose result
        does depend on construction order — remains only as an exact
        fallback for adversarial meshes where greedy under-counts.
        """
        from repro.topo.paths import disjoint_routes

        if src not in self._graph or dst not in self._graph:
            raise TopologyError(f"unknown endpoint in {src!r}->{dst!r}")
        return disjoint_routes(self._graph, src, dst, k, disjoint="node")

    def realize(
        self, seed: int, duration: float, dt: float
    ) -> "MeshRealization":
        """Sample every logical link's availability series."""
        if duration <= 0 or dt <= 0:
            raise ConfigurationError(
                f"duration and dt must be positive, got {duration}, {dt}"
            )
        n = int(round(duration / dt))
        if n == 0:
            raise ConfigurationError("duration shorter than one interval")
        streams = RandomStreams(seed)
        return MeshRealization(
            mesh=self,
            dt=dt,
            available={
                (link.src, link.dst): link.realize(n, streams)
                for link in self.links
            },
        )


@dataclass(frozen=True)
class MeshRealization:
    """Per-logical-link availability for one experiment."""

    mesh: OverlayMesh
    dt: float
    available: dict[tuple[str, str], np.ndarray]

    @property
    def n_intervals(self) -> int:
        return len(next(iter(self.available.values())))

    def link_series(self, src: str, dst: str) -> np.ndarray:
        try:
            return self.available[(src, dst)]
        except KeyError:
            raise TopologyError(f"no logical link {src}->{dst}") from None

    def route_bottleneck_series(self, route: list[str]) -> np.ndarray:
        """End-to-end availability: min over the route's hops, per interval.

        This is the composition end-to-end scheduling consumes; it is an
        *upper bound* on what store-and-forward relaying can deliver
        (queueing at routers can only delay bytes further).
        """
        if len(route) < 2:
            raise TopologyError("route needs at least two nodes")
        series = np.full(self.n_intervals, np.inf)
        for src, dst in zip(route[:-1], route[1:]):
            series = np.minimum(series, self.link_series(src, dst))
        return series
