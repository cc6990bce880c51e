"""Transport substrate: packet queues, per-path send services, backoff.

This stands in for the paper's RUDP-based transport under IQ-ECho.  The
scheduler above it only needs two behaviours from a transport: packets are
delivered at the path's currently available rate, and a path that cannot
accept more data *blocks*, which the scheduler observes so it can switch
paths (with timeouts and exponential backoff to avoid hammering a blocked
path — Section 5.2.2).
"""

from repro.transport.packet import PacketQueue
from repro.transport.backoff import ExponentialBackoff
from repro.transport.service import DeliveryLog, PathService

__all__ = ["PacketQueue", "ExponentialBackoff", "PathService", "DeliveryLog"]
