"""Topology graph: nodes, links, and explicit overlay paths.

The overlay middleware assumes (as the paper does, following OverQoS)
that router placement yields paths whose bottlenecks are not shared.
The testbeds build each route by construction and name it to
:meth:`Topology.path`; :meth:`Topology.shared_links` verifies the
assumption.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import TopologyError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.path import OverlayPath


class Topology:
    """A directed graph of :class:`Node` and :class:`Link` objects."""

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        #: Directed links as successors by node, both in insertion order.
        self._succ: dict[str, dict[str, Link]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node; re-adding the same name returns the original."""
        existing = self._nodes.get(node.name)
        if existing is not None:
            return existing
        self._nodes[node.name] = node
        self._succ[node.name] = {}
        return node

    def add_link(self, link: Link, bidirectional: bool = True) -> None:
        """Add a link (both directions by default, as on the testbed).

        The reverse link shares capacity/delay parameters but carries its
        own (empty) cross-traffic list; the evaluation's data flows are
        one-directional, so cross traffic is attached to the forward link.
        """
        self.add_node(link.a)
        self.add_node(link.b)
        forward, backward = self._succ[link.a.name], self._succ[link.b.name]
        if link.b.name in forward:
            raise TopologyError(f"duplicate link {link.name}")
        forward[link.b.name] = link
        if bidirectional and link.a.name not in backward:
            backward[link.a.name] = Link(
                a=link.b,
                b=link.a,
                capacity_mbps=link.capacity_mbps,
                delay_ms=link.delay_ms,
                loss_rate=link.loss_rate,
            )

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
            return self._succ[a][b]
        except KeyError:
            raise TopologyError(f"no link {a}->{b}") from None

    @property
    def links(self) -> list[Link]:
        """All directed links, by source node then target, in insertion order."""
        return [link for succ in self._succ.values() for link in succ.values()]

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def path(self, node_names: Sequence[str]) -> OverlayPath:
        """Build an :class:`OverlayPath` through the given node names."""
        if len(node_names) < 2:
            raise TopologyError("a path needs at least two nodes")
        links = []
        for a, b in zip(node_names[:-1], node_names[1:]):
            links.append(self.link(a, b))
        return OverlayPath(tuple(self.node(n) for n in node_names), tuple(links))

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
