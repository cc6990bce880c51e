"""Topology graph: construction, lookup, disjoint paths."""

import pytest

from repro.errors import TopologyError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology


def diamond() -> Topology:
    """s -> {a, b} -> t."""
    topo = Topology()
    s, a, b, t = Node("s"), Node("a"), Node("b"), Node("t")
    for x, y in [(s, a), (a, t), (s, b), (b, t)]:
        topo.add_link(Link(a=x, b=y, capacity_mbps=100.0))
    return topo


class TestConstruction:
    def test_add_node_idempotent(self):
        topo = Topology()
        first = topo.add_node(Node("x"))
        second = topo.add_node(Node("x"))
        assert first is second

    def test_duplicate_link_rejected(self):
        topo = Topology()
        link = Link(a=Node("a"), b=Node("b"), capacity_mbps=10.0)
        topo.add_link(link)
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add_link(Link(a=Node("a"), b=Node("b"), capacity_mbps=10.0))

    def test_bidirectional_by_default(self):
        topo = Topology()
        topo.add_link(Link(a=Node("a"), b=Node("b"), capacity_mbps=10.0))
        assert topo.link("b", "a").capacity_mbps == 10.0

    def test_reverse_link_has_no_cross_traffic(self):
        from repro.network.crosstraffic import CrossTrafficSource

        topo = Topology()
        fwd = Link(a=Node("a"), b=Node("b"), capacity_mbps=10.0)
        fwd.add_cross_traffic(CrossTrafficSource(name="x", series=(1.0,)))
        topo.add_link(fwd)
        assert topo.link("b", "a").cross_traffic == []

    def test_unidirectional_option(self):
        topo = Topology()
        topo.add_link(
            Link(a=Node("a"), b=Node("b"), capacity_mbps=10.0),
            bidirectional=False,
        )
        with pytest.raises(TopologyError):
            topo.link("b", "a")


class TestLookup:
    def test_unknown_node(self):
        with pytest.raises(TopologyError, match="unknown node"):
            Topology().node("ghost")

    def test_unknown_link(self):
        topo = diamond()
        with pytest.raises(TopologyError, match="no link"):
            topo.link("a", "b")

    def test_links_enumeration(self):
        topo = diamond()
        names = {l.name for l in topo.links}
        assert "s->a" in names and "a->s" in names
        assert len(names) == 8


class TestPaths:
    def test_explicit_path(self):
        topo = diamond()
        path = topo.path(["s", "a", "t"])
        assert path.name == "s->a->t"
        assert path.hop_count == 2

    def test_path_needs_two_nodes(self):
        with pytest.raises(TopologyError):
            diamond().path(["s"])

    def test_path_with_missing_link(self):
        with pytest.raises(TopologyError):
            diamond().path(["s", "t"])

    def test_shortest_path(self):
        path = diamond().shortest_path("s", "t")
        assert path.hop_count == 2

    def test_shortest_path_no_route(self):
        topo = diamond()
        topo.add_node(Node("island"))
        with pytest.raises(TopologyError):
            topo.shortest_path("s", "island")

    def test_disjoint_paths(self):
        paths = diamond().disjoint_paths("s", "t", k=2)
        assert len(paths) == 2
        middles = {p.nodes[1].name for p in paths}
        assert middles == {"a", "b"}

    def test_disjoint_paths_insufficient(self):
        with pytest.raises(TopologyError, match="node-disjoint"):
            diamond().disjoint_paths("s", "t", k=3)

    def test_edge_disjoint_paths_may_share_a_router(self):
        # s -> {a, b} -> m -> {c, d} -> t: every route crosses m.
        topo = Topology()
        for x, y in [("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                     ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t")]:
            topo.add_link(Link(a=Node(x), b=Node(y), capacity_mbps=10.0))
        with pytest.raises(TopologyError, match="node-disjoint"):
            topo.disjoint_paths("s", "t", k=2)
        paths = topo.edge_disjoint_paths("s", "t", k=2)
        assert [p.name for p in paths] == ["s->a->m->c->t", "s->b->m->d->t"]
        assert topo.shared_links(paths) == set()
        with pytest.raises(TopologyError, match="edge-disjoint"):
            topo.edge_disjoint_paths("s", "t", k=3)

    def test_shared_links_empty_for_disjoint(self):
        topo = diamond()
        paths = topo.disjoint_paths("s", "t", k=2)
        assert topo.shared_links(paths) == set()

    def test_shared_links_detects_overlap(self):
        topo = diamond()
        p1 = topo.path(["s", "a", "t"])
        p2 = topo.path(["s", "a", "t"])
        assert topo.shared_links([p1, p2]) == {"s->a", "a->t"}
