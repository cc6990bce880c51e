"""Disjoint-route extraction: greedy peeling with an exact fallback."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topo.paths import disjoint_routes, greedy_disjoint_routes


def trap() -> nx.DiGraph:
    """Greedy takes s-a-b-t first and strands s-c; max-flow finds two."""
    graph = nx.DiGraph()
    graph.add_edges_from(
        [("s", "a"), ("a", "b"), ("b", "t"), ("a", "d"), ("d", "t"),
         ("s", "c"), ("c", "b")]
    )
    return graph


@pytest.mark.parametrize("disjoint", ["node", "edge"])
class TestDisjointRoutes:
    def test_flow_fallback_when_greedy_undercounts(self, disjoint):
        graph = trap()
        adjacency = {n: set(graph.successors(n)) for n in graph}
        assert greedy_disjoint_routes(
            adjacency, "s", "t", 2, disjoint=disjoint
        ) == [["s", "a", "b", "t"]]
        routes = disjoint_routes(graph, "s", "t", 2, disjoint=disjoint)
        assert sorted(routes) == [["s", "a", "d", "t"], ["s", "c", "b", "t"]]

    def test_too_few_routes_raises(self, disjoint):
        with pytest.raises(
            TopologyError, match=f"only 2 {disjoint}-disjoint routes"
        ):
            disjoint_routes(trap(), "s", "t", 3, disjoint=disjoint)
