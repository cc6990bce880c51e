"""The packet-object Figure 7 fast path, kept as a test oracle.

:func:`repro.core.pgos.dispatch_window` moves per-stream runs of float
deadlines and settles each path service once per window.  Its contract
is identity with the loop below, which walks one :class:`Packet` object
at a time: ``pop_next`` picks per Table 1, :meth:`ReferencePathService.offer`
accepts or refuses each packet against the byte budget and the backoff
window, a refusal requeues the packet at its queue's head, and every
accepted packet updates the :class:`DeliveryLog` on its own.

``tests/property/test_packet_dispatch_oracle.py`` drives both over the
same windows and asserts equal results and equal service state.  The
oracle builds its queues from the product's deadline lists
(:func:`packets_from`), so both sides start from the same floats.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, Mapping, Optional, Sequence

from repro.core.vectors import Schedule
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.transport.backoff import ExponentialBackoff


@dataclass(order=True)
class Packet:
    """One schedulable unit of a stream.

    Ordering is by ``(deadline, stream, seq)`` so packet heaps pop the
    earliest deadline first, with deterministic tie-breaking.
    """

    deadline: float
    stream: str = field(compare=True)
    seq: int = field(compare=True)
    size: int = field(default=1000, compare=False)
    created_at: float = field(default=0.0, compare=False)
    delivered_at: float = field(default=-1.0, compare=False)
    path: str = field(default="", compare=False)

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    @property
    def delivered(self) -> bool:
        """Whether the packet has been handed to a path service."""
        return self.delivered_at >= 0.0

    @property
    def missed_deadline(self) -> bool:
        """Delivered (or still pending) past its virtual deadline."""
        return self.delivered and self.delivered_at > self.deadline


def packets_from(
    stream: str, deadlines: Iterable[float], size: int
) -> Deque[Packet]:
    """One stream's FIFO of packets carrying ``deadlines`` in order."""
    return deque(
        Packet(deadline=d, stream=stream, seq=i, size=size)
        for i, d in enumerate(deadlines)
    )


@dataclass
class DeliveryLog:
    """Per-stream accounting of what a service delivered."""

    bytes_by_stream: dict[str, float] = field(default_factory=dict)
    interval_bytes: dict[str, float] = field(default_factory=dict)
    packets_by_stream: dict[str, int] = field(default_factory=dict)
    deadline_misses: dict[str, int] = field(default_factory=dict)

    def record(self, packet: Packet) -> None:
        s = packet.stream
        self.bytes_by_stream[s] = self.bytes_by_stream.get(s, 0.0) + packet.size
        self.interval_bytes[s] = self.interval_bytes.get(s, 0.0) + packet.size
        self.packets_by_stream[s] = self.packets_by_stream.get(s, 0) + 1
        if packet.missed_deadline:
            self.deadline_misses[s] = self.deadline_misses.get(s, 0) + 1

    def reset_interval(self) -> None:
        self.interval_bytes.clear()


class ReferencePathService:
    """A path service that accepts or refuses one packet at a time."""

    def __init__(
        self,
        name: str,
        backoff: ExponentialBackoff | None = None,
        obs: Optional[Observability] = None,
    ):
        self.name = name
        self.backoff = backoff or ExponentialBackoff()
        self.log = DeliveryLog()
        self._budget_bytes = 0.0
        self._now = 0.0
        self._blocked_until = 0.0
        self._obs = obs if obs is not None else NULL_OBS

    def begin_interval(self, now: float, budget_bytes: float) -> None:
        self._now = now
        self._budget_bytes = budget_bytes
        self.log.reset_interval()

    @property
    def remaining_budget(self) -> float:
        return self._budget_bytes

    @property
    def blocked_until(self) -> float:
        return self._blocked_until

    @property
    def blocked(self) -> bool:
        return self._budget_bytes <= 0 or self._now < self._blocked_until

    def offer(self, packet: Packet) -> bool:
        """Try to send ``packet``.  Returns ``False`` if the path blocked."""
        if self._now < self._blocked_until:
            return False
        if packet.size > self._budget_bytes:
            self._blocked_until = self._now + self.backoff.next_delay()
            if self._obs.enabled:
                self._obs.metrics.counter("transport.offers_blocked").inc()
                self._obs.trace.emit(
                    self._now,
                    Category.TRANSPORT,
                    "path_blocked",
                    path=self.name,
                    stream_id=self._obs.stream_id(packet.stream),
                    stream=packet.stream,
                    budget_bytes=self._budget_bytes,
                    packet_size=packet.size,
                    blocked_until=self._blocked_until,
                )
            return False
        self._budget_bytes -= packet.size
        self.backoff.reset()
        self._blocked_until = 0.0
        packet.delivered_at = self._now
        packet.path = self.name
        self.log.record(packet)
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.counter("transport.packets_delivered").inc()
            metrics.counter("transport.bytes_delivered").inc(packet.size)
            if packet.missed_deadline:
                metrics.counter("transport.deadline_misses").inc()
        return True


class _VSCursor:
    """Round-robin cursor over one path's stream scheduling vector."""

    __slots__ = ("vector", "pos")

    def __init__(self, vector: Sequence[str]):
        self.vector = list(vector)
        self.pos = 0

    def next_stream(self) -> Optional[str]:
        if not self.vector:
            return None
        stream = self.vector[self.pos]
        self.pos = (self.pos + 1) % len(self.vector)
        return stream


class DispatchResult:
    """Statistics from one window of packet dispatch."""

    def __init__(self) -> None:
        self.sent: dict[str, dict[str, int]] = {}
        self.blocked_events = 0
        self.unsent = 0
        self.rule2_sent = 0
        self.unscheduled_sent = 0

    def record(self, stream: str, path: str) -> None:
        per_path = self.sent.setdefault(stream, {})
        per_path[path] = per_path.get(path, 0) + 1


def dispatch_window(
    schedule: Schedule,
    services: Mapping[str, ReferencePathService],
    scheduled_queues: Mapping[str, Deque[Packet]],
    unscheduled_queues: Mapping[str, Deque[Packet]] | None = None,
    stream_precedence: Sequence[str] | None = None,
) -> DispatchResult:
    """Dispatch one scheduling window of packets per Figure 7 and Table 1."""
    unscheduled_queues = unscheduled_queues or {}
    precedence = list(
        stream_precedence
        if stream_precedence is not None
        else schedule.stream_path_packets
    )
    rank = {s: i for i, s in enumerate(precedence)}
    for s in list(scheduled_queues) + list(unscheduled_queues):
        if s not in rank:
            rank[s] = len(rank)

    result = DispatchResult()
    cursors = {p: _VSCursor(vs) for p, vs in schedule.vs.items()}
    quota = {
        s: dict(paths) for s, paths in schedule.stream_path_packets.items()
    }
    blocked: set[str] = set()
    scheduled_pending = sum(len(q) for q in scheduled_queues.values())
    quota_pending = schedule.total_packets

    def pop_next(path: str):
        nonlocal scheduled_pending, quota_pending
        if scheduled_pending > 0 and quota_pending > 0:
            cursor = cursors.get(path)
            if cursor is not None:
                for _ in range(len(cursor.vector)):
                    stream = cursor.next_stream()
                    q = scheduled_queues.get(stream)
                    if q and quota.get(stream, {}).get(path, 0) > 0:
                        quota[stream][path] -= 1
                        scheduled_pending -= 1
                        quota_pending -= 1
                        return q.popleft(), path, False
            best_stream, best_other, best_key = None, None, None
            for stream, paths in quota.items():
                q = scheduled_queues.get(stream)
                if not q:
                    continue
                for other, remaining in paths.items():
                    if other == path or remaining <= 0:
                        continue
                    key = (q[0].deadline, rank.get(stream, 1 << 30))
                    if best_key is None or key < best_key:
                        best_key, best_stream, best_other = key, stream, other
                    break
            if best_stream is not None:
                quota[best_stream][best_other] -= 1
                scheduled_pending -= 1
                quota_pending -= 1
                return (
                    scheduled_queues[best_stream].popleft(),
                    best_other,
                    False,
                )
        best_stream, best_key = None, None
        for stream, q in unscheduled_queues.items():
            if not q:
                continue
            key = (q[0].deadline, rank.get(stream, 1 << 30))
            if best_key is None or key < best_key:
                best_key, best_stream = key, stream
        if best_stream is not None:
            return unscheduled_queues[best_stream].popleft(), None, True
        return None, None, False

    def requeue(packet: Packet, quota_path, from_unscheduled: bool) -> None:
        nonlocal scheduled_pending, quota_pending
        if from_unscheduled:
            unscheduled_queues[packet.stream].appendleft(packet)
        else:
            scheduled_queues[packet.stream].appendleft(packet)
            scheduled_pending += 1
            if quota_path is not None:
                quota[packet.stream][quota_path] += 1
                quota_pending += 1

    def try_send(path: str, service: ReferencePathService) -> bool:
        packet, quota_path, from_unscheduled = pop_next(path)
        if packet is None:
            return False
        if service.offer(packet):
            result.record(packet.stream, path)
            if from_unscheduled:
                result.unscheduled_sent += 1
            elif quota_path is not None and quota_path != path:
                result.rule2_sent += 1
            return True
        result.blocked_events += 1
        blocked.add(path)
        requeue(packet, quota_path, from_unscheduled)
        return False

    for path in schedule.vp:
        if path in blocked:
            continue
        service = services.get(path)
        if service is None or service.blocked:
            blocked.add(path)
            continue
        try_send(path, service)

    progress = True
    while progress:
        progress = False
        for path, service in services.items():
            if path in blocked or service.blocked:
                continue
            if try_send(path, service):
                progress = True

    result.unsent = sum(len(q) for q in scheduled_queues.values()) + sum(
        len(q) for q in unscheduled_queues.values()
    )
    return result
