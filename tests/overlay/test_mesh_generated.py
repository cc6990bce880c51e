"""Satellite 3: multi-route discovery on generated datacenter meshes.

`OverlayMesh.routes(k>1)` must return simple, node-disjoint routes on
meshes mirrored from the fat-tree and leaf-spine generators — and the
result must be a pure function of mesh *structure*, identical no matter
what order the logical links were inserted in.
"""

import pytest

from repro.errors import TopologyError
from repro.network.node import NodeKind
from repro.overlay.mesh import OverlayMesh
from repro.topo import (
    PRESETS,
    build_testbed,
    route_is_simple,
    routes_node_disjoint,
)

#: Node kinds the overlay routes through: hosts and cross-traffic
#: nodes are left out, as on the Figure-8 testbed.
MESH_KINDS = (NodeKind.SERVER, NodeKind.CLIENT, NodeKind.ROUTER)

#: Profiles assigned round-robin over the *sorted* link names, so the
#: assignment is a pure function of structure.
MESH_PROFILE_ROTATION = ("calm", "light", "steady")


def _mesh(preset):
    """Mirror a preset's switch fabric as an overlay mesh.

    One directed logical link per switch-level underlay link, added in
    sorted-name order, so two testbeds with the same structure give
    identical meshes whatever order their nodes were inserted in.
    """
    topology = build_testbed(PRESETS[preset]).topology
    kinds = {node.name: node.kind for node in topology.nodes}
    mesh = OverlayMesh()
    links = sorted(topology.links, key=lambda l: l.name)
    for i, link in enumerate(links):
        if kinds[link.a.name] not in MESH_KINDS:
            continue
        if kinds[link.b.name] not in MESH_KINDS:
            continue
        mesh.add_link(
            link.a.name,
            link.b.name,
            profile=MESH_PROFILE_ROTATION[i % len(MESH_PROFILE_ROTATION)],
            capacity_mbps=link.capacity_mbps,
        )
    return mesh


def _reinserted(mesh, order):
    """Rebuild a mesh inserting the same logical links in a new order."""
    clone = OverlayMesh()
    for link in order:
        clone.add_link(
            link.src, link.dst,
            profile=link.profile,
            capacity_mbps=link.capacity_mbps,
        )
    return clone


@pytest.mark.parametrize(
    "preset,k",
    [("fat_tree_k4", 2), ("fat_tree_k8", 4), ("leaf_spine_4x8", 4)],
)
class TestGeneratedMeshRoutes:
    def test_routes_simple_and_node_disjoint(self, preset, k):
        routes = _mesh(preset).routes("SRV", "CLT", k=k)
        assert len(routes) == k
        for route in routes:
            assert route[0] == "SRV" and route[-1] == "CLT"
            assert route_is_simple(route)
        assert routes_node_disjoint(routes)

    def test_stable_under_insertion_order(self, preset, k):
        mesh = _mesh(preset)
        baseline = mesh.routes("SRV", "CLT", k=k)
        reversed_mesh = _reinserted(mesh, list(reversed(mesh.links)))
        shuffled = sorted(mesh.links, key=lambda l: (l.dst, l.src))
        shuffled_mesh = _reinserted(mesh, shuffled)
        assert reversed_mesh.routes("SRV", "CLT", k=k) == baseline
        assert shuffled_mesh.routes("SRV", "CLT", k=k) == baseline


class TestMeshMirrorsFabric:
    def test_hosts_excluded(self):
        mesh = _mesh("leaf_spine_4x8")
        assert not any(node.startswith("H") for node in mesh.nodes)
        assert "SRV" in mesh.nodes and "CLT" in mesh.nodes

    def test_profiles_are_structure_deterministic(self):
        a, b = _mesh("fat_tree_k4"), _mesh("fat_tree_k4")
        assert [
            (l.src, l.dst, l.profile, l.capacity_mbps) for l in a.links
        ] == [(l.src, l.dst, l.profile, l.capacity_mbps) for l in b.links]

    def test_over_requesting_routes_raises(self):
        with pytest.raises(TopologyError, match="node-disjoint"):
            _mesh("fat_tree_k4").routes("SRV", "CLT", k=5)
