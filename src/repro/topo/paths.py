"""Deterministic disjoint-route extraction over adjacency maps.

:mod:`networkx`'s ``node_disjoint_paths`` decomposes a max-flow, so
*which* disjoint paths it returns depends on internal edge ordering —
i.e. on graph construction order.  Generated topologies need route
extraction that is a pure function of the graph's *structure* (so a
``topo_checksum`` built from the routes is reproducible from
``(family, params, seed)`` alone), which this module provides: greedy
shortest-route peeling with lexicographic tie-breaking.

The algorithm: repeatedly take the lexicographically-smallest minimum-
hop route from ``src`` to ``dst``, then remove its interior nodes
(node-disjoint mode) or its edges (edge-disjoint mode) and repeat.
Greedy peeling can under-count on adversarial graphs (max-flow is the
exact answer); :func:`disjoint_routes` falls back to ``networkx``'s flow
decomposition when greedy comes up short.  It backs both
:meth:`repro.overlay.mesh.OverlayMesh.routes` (node-disjoint) and
:meth:`repro.network.topology.Topology.edge_disjoint_paths`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

import networkx as nx

from repro.errors import TopologyError


def _reverse_distances(
    adjacency: Mapping[str, Iterable[str]], dst: str
) -> dict[str, int]:
    """Hop count from every node *to* ``dst`` (BFS on reversed edges)."""
    reverse: dict[str, list[str]] = {}
    for node, neighbors in adjacency.items():
        for neighbor in neighbors:
            reverse.setdefault(neighbor, []).append(node)
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        node = queue.popleft()
        for pred in reverse.get(node, ()):
            if pred not in dist:
                dist[pred] = dist[node] + 1
                queue.append(pred)
    return dist


def shortest_route(
    adjacency: Mapping[str, Iterable[str]], src: str, dst: str
) -> list[str] | None:
    """The lexicographically-smallest minimum-hop route, or ``None``.

    Walks from ``src`` toward ``dst`` always choosing the smallest-named
    neighbor that still lies on *some* shortest path — deterministic for
    a given structure no matter the insertion order of nodes or edges.
    """
    dist = _reverse_distances(adjacency, dst)
    if src not in dist:
        return None
    route = [src]
    node = src
    while node != dst:
        step = None
        for neighbor in sorted(adjacency.get(node, ())):
            if dist.get(neighbor, -1) == dist[node] - 1:
                step = neighbor
                break
        assert step is not None  # dist[src] finite => a next hop exists
        route.append(step)
        node = step
    return route


def greedy_disjoint_routes(
    adjacency: Mapping[str, Iterable[str]],
    src: str,
    dst: str,
    k: int,
    disjoint: str = "node",
) -> list[list[str]]:
    """Up to ``k`` mutually disjoint routes, shortest first.

    Returns fewer than ``k`` routes when greedy peeling exhausts the
    graph; raises only on malformed arguments.  ``disjoint`` selects
    what the routes may not share: interior ``"node"``s (the default —
    matching the paper's OverQoS-style no-shared-bottleneck placement)
    or ``"edge"``s.
    """
    if disjoint not in ("node", "edge"):
        raise TopologyError(f"disjoint must be 'node' or 'edge', got {disjoint!r}")
    if k < 1:
        raise TopologyError(f"k must be >= 1, got {k}")
    if src == dst:
        raise TopologyError("src and dst must differ")
    # Work on a mutable copy: sets for O(1) removal, sorted at walk time.
    work: dict[str, set[str]] = {
        node: set(neighbors) for node, neighbors in adjacency.items()
    }
    routes: list[list[str]] = []
    while len(routes) < k:
        route = shortest_route(work, src, dst)
        if route is None:
            break
        routes.append(route)
        if disjoint == "node":
            for interior in route[1:-1]:
                work.pop(interior, None)
            for neighbors in work.values():
                neighbors.difference_update(route[1:-1])
            # src->dst may also be a direct edge; burn it once used.
            if len(route) == 2:
                work[src].discard(dst)
        else:
            for a, b in zip(route[:-1], route[1:]):
                work[a].discard(b)
    return routes


def disjoint_routes(
    graph: nx.DiGraph, src: str, dst: str, k: int, disjoint: str
) -> list[list[str]]:
    """Exactly ``k`` mutually disjoint routes of ``graph``, shortest first.

    Greedy peeling (:func:`greedy_disjoint_routes`) first; when it
    under-counts, ``networkx``'s max-flow decomposition — whose result
    depends on construction order — is the exact fallback.  Raises
    :class:`TopologyError` when fewer than ``k`` routes exist.
    """
    adjacency = {node: set(graph.successors(node)) for node in graph}
    found = greedy_disjoint_routes(adjacency, src, dst, k, disjoint=disjoint)
    if len(found) < k:
        flow_routes = (
            nx.node_disjoint_paths
            if disjoint == "node"
            else nx.edge_disjoint_paths
        )
        try:
            exact = sorted(flow_routes(graph, src, dst), key=len)
        except nx.NetworkXNoPath:
            exact = []
        if len(exact) < k:
            raise TopologyError(
                f"only {max(len(found), len(exact))} {disjoint}-disjoint "
                f"routes from {src} to {dst}; {k} requested"
            )
        found = exact
    return [list(route) for route in found[:k]]


def route_is_simple(route: list[str]) -> bool:
    """True when the route visits no node twice."""
    return len(set(route)) == len(route)


def routes_node_disjoint(routes: list[list[str]]) -> bool:
    """True when no two routes share an interior node."""
    seen: set[str] = set()
    for route in routes:
        interior = set(route[1:-1])
        if interior & seen:
            return False
        seen |= interior
    return True
