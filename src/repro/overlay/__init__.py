"""Multi-hop overlay forwarding.

The figure experiments treat an overlay path as one end-to-end pipe whose
available bandwidth is the bottleneck composition (min over hops).  This
package models what actually happens along the way — Figure 1's router
daemons storing and forwarding application messages hop by hop:

* :mod:`repro.overlay.mesh` — overlay nodes, logical links with their own
  availability realizations, route discovery;
* :mod:`repro.overlay.forwarding` — the interval-stepped store-and-forward
  relay: per-node queues, per-link capacity, end-to-end delivery and
  router buffer occupancy.

The headline property verified on top of it: a source that paces streams
with PGOS against the *end-to-end* (bottleneck-composed) distribution
keeps intermediate router queues bounded, while a source that pushes at
its first hop's rate floods the router in front of the bottleneck
(``tests/overlay/test_forwarding.py``).
"""

from repro.overlay.mesh import LogicalLink, OverlayMesh
from repro.overlay.forwarding import ForwardingResult, run_relay_session
from repro.overlay.multicast import (
    MulticastTree,
    multicast_guaranteed_rate,
    run_multicast_session,
)

__all__ = [
    "LogicalLink",
    "OverlayMesh",
    "ForwardingResult",
    "run_relay_session",
    "MulticastTree",
    "multicast_guaranteed_rate",
    "run_multicast_session",
]
