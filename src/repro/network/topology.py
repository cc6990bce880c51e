"""Topology graph: nodes, links, and overlay path discovery.

Backed by a :class:`networkx.DiGraph`.  The overlay middleware assumes (as
the paper does, following OverQoS) that router placement yields paths whose
bottlenecks are not shared; :meth:`Topology.disjoint_paths` finds such
paths, and :meth:`Topology.shared_links` verifies the assumption.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import networkx as nx

from repro.errors import TopologyError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.path import OverlayPath


class Topology:
    """A directed graph of :class:`Node` and :class:`Link` objects."""

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._nodes: dict[str, Node] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node; re-adding the same name returns the original."""
        existing = self._nodes.get(node.name)
        if existing is not None:
            return existing
        self._nodes[node.name] = node
        self._graph.add_node(node.name)
        return node

    def add_link(self, link: Link, bidirectional: bool = True) -> None:
        """Add a link (both directions by default, as on the testbed).

        The reverse link shares capacity/delay parameters but carries its
        own (empty) cross-traffic list; the evaluation's data flows are
        one-directional, so cross traffic is attached to the forward link.
        """
        self.add_node(link.a)
        self.add_node(link.b)
        if self._graph.has_edge(link.a.name, link.b.name):
            raise TopologyError(f"duplicate link {link.name}")
        self._graph.add_edge(link.a.name, link.b.name, link=link)
        if bidirectional and not self._graph.has_edge(link.b.name, link.a.name):
            reverse = Link(
                a=link.b,
                b=link.a,
                capacity_mbps=link.capacity_mbps,
                delay_ms=link.delay_ms,
                loss_rate=link.loss_rate,
            )
            self._graph.add_edge(link.b.name, link.a.name, link=reverse)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        """All registered nodes."""
        return list(self._nodes.values())

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def link(self, a: str, b: str) -> Link:
        """Look up the directed link from ``a`` to ``b``."""
        try:
            return self._graph.edges[a, b]["link"]
        except KeyError:
            raise TopologyError(f"no link {a}->{b}") from None

    @property
    def links(self) -> list[Link]:
        """All directed links."""
        return [data["link"] for _, _, data in self._graph.edges(data=True)]

    # ------------------------------------------------------------------
    # path discovery
    # ------------------------------------------------------------------
    def path(self, node_names: Sequence[str]) -> OverlayPath:
        """Build an :class:`OverlayPath` through the given node names."""
        if len(node_names) < 2:
            raise TopologyError("a path needs at least two nodes")
        links = []
        for a, b in zip(node_names[:-1], node_names[1:]):
            links.append(self.link(a, b))
        return OverlayPath(tuple(self.node(n) for n in node_names), tuple(links))

    def shortest_path(self, src: str, dst: str) -> OverlayPath:
        """Minimum-hop path from ``src`` to ``dst``."""
        try:
            names = nx.shortest_path(self._graph, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise TopologyError(f"no path {src}->{dst}: {exc}") from exc
        return self.path(names)

    def disjoint_paths(self, src: str, dst: str, k: int = 2) -> list[OverlayPath]:
        """Up to ``k`` node-disjoint paths from ``src`` to ``dst``.

        Paths are returned shortest-first.  Raises if fewer than ``k``
        disjoint paths exist — the caller asked for parallelism the topology
        cannot provide.
        """
        if src not in self._nodes or dst not in self._nodes:
            raise TopologyError(f"unknown endpoint in {src!r}->{dst!r}")
        try:
            all_paths = list(nx.node_disjoint_paths(self._graph, src, dst))
        except nx.NetworkXNoPath:
            all_paths = []
        all_paths.sort(key=len)
        if len(all_paths) < k:
            raise TopologyError(
                f"only {len(all_paths)} node-disjoint paths from {src} to "
                f"{dst}; {k} requested"
            )
        return [self.path(names) for names in all_paths[:k]]

    def edge_disjoint_paths(
        self, src: str, dst: str, k: int = 2
    ) -> list[OverlayPath]:
        """Up to ``k`` edge-disjoint paths from ``src`` to ``dst``.

        Edge-disjoint is the weaker guarantee (paths may share routers
        but never a link — i.e. never a bottleneck), which some
        generated fabrics can satisfy at higher ``k`` than full node
        disjointness.  Extraction is the deterministic greedy peeling
        of :mod:`repro.topo.paths` — a pure function of the graph's
        structure, independent of construction order — with an exact
        max-flow fallback when greedy under-counts.  Raises if fewer
        than ``k`` such paths exist.
        """
        from repro.topo.paths import disjoint_routes

        if src not in self._nodes or dst not in self._nodes:
            raise TopologyError(f"unknown endpoint in {src!r}->{dst!r}")
        return [
            self.path(names)
            for names in disjoint_routes(
                self._graph, src, dst, k, disjoint="edge"
            )
        ]

    def shared_links(self, paths: Iterable[OverlayPath]) -> set[str]:
        """Names of links used by more than one of the given paths.

        An empty result confirms the OverQoS-style placement assumption:
        the paths do not share a (potential) bottleneck.
        """
        seen: dict[str, int] = {}
        for path in paths:
            for link in path.links:
                seen[link.name] = seen.get(link.name, 0) + 1
        return {name for name, count in seen.items() if count > 1}
