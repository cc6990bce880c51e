"""Topology graph: construction, lookup, explicit paths."""

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

    def test_links_ordered_by_source_then_target(self):
        # Nodes in insertion order, then each node's successors in
        # insertion order: realizations and topology checksums walk
        # links in this order.
        assert [l.name for l in diamond().links] == [
            "s->a", "s->b", "a->s", "a->t", "t->a", "t->b", "b->s", "b->t",
        ]


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

    def test_shared_links_empty_for_disjoint(self):
        topo = diamond()
        paths = [topo.path(["s", "a", "t"]), topo.path(["s", "b", "t"])]
        assert topo.shared_links(paths) == set()

    def test_shared_links_detects_overlap(self):
        topo = diamond()
        p1 = topo.path(["s", "a", "t"])
        p2 = topo.path(["s", "a", "t"])
        assert topo.shared_links([p1, p2]) == {"s->a", "a->t"}
