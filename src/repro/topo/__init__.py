"""Parametric topology generators with calibrated cross traffic.

The Figure-8 Emulab layout (:mod:`repro.network.emulab`) is one data
point; this package generates *families* of topologies — k-ary
fat-trees, leaf-spine fabrics, and REPETITA-style repeatable random
WANs — as named, seeded, checksummed instances that plug into the
existing workload/cluster stack through the ``topology=`` parameter of
:func:`repro.workload.scenarios.make_scenario`.

Everything a generated instance is, is captured by its
:class:`TopoSpec`; :func:`build_testbed` turns a spec into a
:class:`GeneratedTestbed` (a drop-in
:class:`~repro.network.emulab.EmulabTestbed`), and
:func:`topo_checksum` digests the built structure as the
reproducibility proof.
"""

from repro.topo.generators import (
    FAMILIES,
    GeneratedTestbed,
    build_fat_tree,
    build_leaf_spine,
    build_repetita_wan,
    build_testbed,
    topo_checksum,
)
from repro.topo.spec import (
    PRESETS,
    TopoSpec,
    parse_topology,
    resolve_topology,
)
from repro.topo.traffic import (
    DCFlowTraffic,
    IncastTraffic,
    TRAFFIC_SCENARIOS,
    bottleneck_sources,
    traffic_params,
)

__all__ = [
    "FAMILIES",
    "GeneratedTestbed",
    "PRESETS",
    "TRAFFIC_SCENARIOS",
    "TopoSpec",
    "DCFlowTraffic",
    "IncastTraffic",
    "bottleneck_sources",
    "build_fat_tree",
    "build_leaf_spine",
    "build_repetita_wan",
    "build_testbed",
    "parse_topology",
    "resolve_topology",
    "topo_checksum",
    "traffic_params",
]
