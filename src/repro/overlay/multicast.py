"""Overlay multicast distribution (the paper's content-delivery extension).

"It would be interesting to extend this work to content delivery systems
that use overlay multicast techniques."  This module does the minimal
faithful version: a source distributes one stream to many clients along a
multicast *tree* of logical links; each tree node forwards one copy per
child link.

Two pacing policies are compared (as in unicast relaying):

* ``paced`` — the source sends at the rate the *worst* root-to-leaf
  bottleneck distribution sustains with the requested probability (the
  multicast generalization of Lemma 1: every receiver gets the rate with
  at least that probability);
* per-subtree adaption is deliberately out of scope (layered/segmented
  multicast is a further extension); slow subtrees therefore see loss,
  which the result quantifies per client.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.core.guarantees import guaranteed_rate_at
from repro.monitoring.cdf import EmpiricalCDF
from repro.overlay.mesh import MeshRealization
from repro.units import bytes_in_interval, mbps_from_bytes


@dataclass(frozen=True)
class MulticastTree:
    """A distribution tree: parent -> children, rooted at ``source``."""

    source: str
    children: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if self.source not in self.children:
            raise ConfigurationError(
                f"source {self.source!r} has no children entry"
            )
        seen = {self.source}
        frontier = [self.source]
        while frontier:
            node = frontier.pop()
            for child in self.children.get(node, ()):
                if child in seen:
                    raise ConfigurationError(
                        f"node {child!r} reached twice — not a tree"
                    )
                seen.add(child)
                frontier.append(child)
        object.__setattr__(self, "_nodes", frozenset(seen))

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes  # type: ignore[attr-defined]

    @property
    def leaves(self) -> list[str]:
        """Client nodes: tree members with no children."""
        return sorted(
            node
            for node in self.nodes
            if not self.children.get(node)
        )

    def paths_to_leaves(self) -> dict[str, list[str]]:
        """Root-to-leaf node paths, keyed by leaf."""
        paths: dict[str, list[str]] = {}

        def walk(node: str, trail: list[str]) -> None:
            kids = self.children.get(node, ())
            if not kids:
                if node != self.source:
                    paths[node] = trail + [node]
                return
            for child in kids:
                walk(child, trail + [node])

        walk(self.source, [])
        return paths


@dataclass
class MulticastResult:
    """Per-client delivery from one multicast session."""

    rate_mbps: float
    delivered_mbps: dict[str, np.ndarray]
    dropped_bytes: dict[str, float] = field(default_factory=dict)

    def client_attainment(self, client: str, target_mbps: float) -> float:
        """Fraction of intervals the client received >= ``target_mbps``."""
        series = self.delivered_mbps.get(client)
        if series is None:
            raise ConfigurationError(f"unknown client {client!r}")
        return float(np.mean(series >= target_mbps * (1 - 1e-9)))


def multicast_guaranteed_rate(
    realization: MeshRealization,
    tree: MulticastTree,
    probability: float,
) -> float:
    """Rate every client sustains with at least ``probability``.

    The multicast Lemma 1: the source must respect the *weakest*
    root-to-leaf bottleneck distribution, so the guaranteed rate is the
    min over leaves of each end-to-end distribution's quantile.
    """
    rates = []
    for leaf, path in tree.paths_to_leaves().items():
        cdf = EmpiricalCDF(realization.route_bottleneck_series(path))
        rates.append(guaranteed_rate_at(cdf, probability))
    if not rates:
        raise ConfigurationError("tree has no clients")
    return float(min(rates))


def run_multicast_session(
    realization: MeshRealization,
    tree: MulticastTree,
    rate_mbps: float,
    node_buffer_bytes: float = 16 * 1024 * 1024,
) -> MulticastResult:
    """Distribute a CBR stream of ``rate_mbps`` down the tree.

    Per interval, each node forwards its queued bytes to every child link
    independently (one copy per child); a child link slower than the
    arrival rate accumulates queue, bounded by ``node_buffer_bytes``
    per (node, child) with overflow dropped (counted per leaf subtree's
    entry link).
    """
    if rate_mbps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_mbps}")
    for parent, kids in tree.children.items():
        for child in kids:
            realization.link_series(parent, child)  # validates links

    dt = realization.dt
    n = realization.n_intervals
    edges = [
        (parent, child)
        for parent, kids in tree.children.items()
        for child in kids
    ]
    # Per-edge queue of bytes awaiting transmission to the child.
    queue = {edge: 0.0 for edge in edges}
    dropped = {edge: 0.0 for edge in edges}
    # Bytes arriving at each node this interval (source injects).
    leaves = tree.leaves
    delivered = {leaf: np.zeros(n) for leaf in leaves}

    # Topological order (parents before children) for cut-through.
    order: list[str] = []
    frontier = [tree.source]
    while frontier:
        node = frontier.pop(0)
        order.append(node)
        frontier.extend(tree.children.get(node, ()))

    for k in range(n):
        arrivals = {node: 0.0 for node in tree.nodes}
        arrivals[tree.source] = bytes_in_interval(rate_mbps, dt)
        for node in order:
            payload = arrivals[node]
            for child in tree.children.get(node, ()):
                edge = (node, child)
                queue[edge] += payload
                if queue[edge] > node_buffer_bytes:
                    dropped[edge] += queue[edge] - node_buffer_bytes
                    queue[edge] = node_buffer_bytes
                budget = bytes_in_interval(
                    float(realization.link_series(node, child)[k]), dt
                )
                sent = min(queue[edge], budget)
                queue[edge] -= sent
                arrivals[child] += sent
        for leaf in leaves:
            delivered[leaf][k] = mbps_from_bytes(arrivals[leaf], dt)

    # Attribute drops to the leaf(s) downstream of each edge.
    leaf_drops = {leaf: 0.0 for leaf in leaves}
    paths = tree.paths_to_leaves()
    for (parent, child), lost in dropped.items():
        if lost <= 0:
            continue
        downstream = [
            leaf
            for leaf, path in paths.items()
            if child in path
        ]
        for leaf in downstream:
            leaf_drops[leaf] += lost / max(len(downstream), 1)

    return MulticastResult(
        rate_mbps=rate_mbps,
        delivered_mbps=delivered,
        dropped_bytes=leaf_drops,
    )
