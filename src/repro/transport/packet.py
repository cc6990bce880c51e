"""Per-stream packet queues.

IQ-Paths manipulates arbitrary application-level messages; the scheduler
works on fixed-size packets carved out of them.  Every packet of a
stream has the same size, so a queue records the stream's name and
packet size once and holds nothing per packet but its virtual deadline,
assigned by the scheduling-vector machinery.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.units import DEFAULT_PACKET_SIZE


class PacketQueue(deque):
    """One stream's FIFO of packet virtual deadlines, in deadline order.

    ``queue[0]`` is the head packet's deadline; ``popleft()`` takes it.
    """

    __slots__ = ("stream", "size")

    def __init__(
        self,
        stream: str,
        size: int = DEFAULT_PACKET_SIZE,
        deadlines: Iterable[float] = (),
    ):
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        super().__init__(deadlines)
        self.stream = stream
        self.size = size

