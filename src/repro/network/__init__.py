"""Overlay network substrate.

Implements the emulated wide-area setting of the paper's evaluation:
capacity links with injected cross traffic (:mod:`repro.network.link`,
:mod:`repro.network.crosstraffic`), a topology graph whose routes are
named explicitly (:mod:`repro.network.topology`), overlay paths whose
available bandwidth is the bottleneck residual
(:mod:`repro.network.path`), and the concrete Figure-8 Emulab testbed
(:mod:`repro.network.emulab`).
"""

from repro.network.node import Node, NodeKind
from repro.network.link import Link
from repro.network.crosstraffic import CrossTrafficSource
from repro.network.topology import Topology
from repro.network.path import OverlayPath, PathBandwidth
from repro.network.qos import PathQoS, loss_guarantee, realize_qos, rtt_guarantee
from repro.network.emulab import EmulabTestbed, TestbedRealization, make_figure8_testbed

__all__ = [
    "Node",
    "NodeKind",
    "Link",
    "CrossTrafficSource",
    "Topology",
    "OverlayPath",
    "PathBandwidth",
    "PathQoS",
    "realize_qos",
    "rtt_guarantee",
    "loss_guarantee",
    "EmulabTestbed",
    "TestbedRealization",
    "make_figure8_testbed",
]
