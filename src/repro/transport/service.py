"""Per-path send services.

Each overlay path has one *path service* (Figure 6): it accepts packets
from the scheduler and delivers them at the path's currently available
rate.  Within one measurement interval the service has a byte budget
(available bandwidth times interval length); a packet beyond the budget
*blocks*, which the scheduler observes and reacts to by switching paths
and backing off.

The scheduler's fast path decides each packet against the budget it
read at the start of the window, then settles the service once per
(path, stream) with :meth:`PathService.settle` and reports a block with
:meth:`PathService.refuse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.transport.backoff import ExponentialBackoff


@dataclass
class DeliveryLog:
    """Per-stream accounting of what a service delivered, lifetime totals."""

    bytes_by_stream: dict[str, float] = field(default_factory=dict)
    packets_by_stream: dict[str, int] = field(default_factory=dict)
    deadline_misses: dict[str, int] = field(default_factory=dict)


class PathService:
    """Delivers packets over one overlay path at its available rate.

    The experiment driver calls :meth:`begin_interval` with the interval's
    available bandwidth.  The scheduler sends against
    :attr:`remaining_budget` and then calls :meth:`settle` once per stream
    it sent on this path and :meth:`refuse` when a packet did not fit.  A
    refusal starts a backoff window during which the service stays
    :attr:`blocked`, even with budget, so the scheduler tries another path.
    """

    def __init__(
        self,
        name: str,
        backoff: ExponentialBackoff | None = None,
        obs: Optional[Observability] = None,
    ):
        if not name:
            raise ConfigurationError("path service needs a non-empty name")
        self.name = name
        self.backoff = backoff or ExponentialBackoff()
        self.log = DeliveryLog()
        self._budget_bytes = 0.0
        self._now = 0.0
        self._blocked_until = 0.0
        self._obs = obs if obs is not None else NULL_OBS

    # ------------------------------------------------------------------
    # interval lifecycle
    # ------------------------------------------------------------------
    def begin_interval(self, now: float, budget_bytes: float) -> None:
        """Start a measurement interval with the given byte budget."""
        if budget_bytes < 0:
            raise ConfigurationError(
                f"budget must be >= 0, got {budget_bytes}"
            )
        self._now = now
        self._budget_bytes = budget_bytes

    @property
    def now(self) -> float:
        """The current interval's start time (the send time of its packets)."""
        return self._now

    @property
    def remaining_budget(self) -> float:
        """Bytes this service can still deliver in the current interval."""
        return self._budget_bytes

    @property
    def blocked_until(self) -> float:
        """End of the backoff window a refusal started (0.0 after a send)."""
        return self._blocked_until

    @property
    def blocked(self) -> bool:
        """True when the service cannot accept a packet right now."""
        return self._budget_bytes <= 0 or self._now < self._blocked_until

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def settle(
        self,
        stream: str,
        packet_size: int,
        packets: int,
        misses: int,
        remaining_budget: float,
    ) -> None:
        """Account ``packets`` of ``stream`` sent in this interval.

        ``remaining_budget`` is the budget left after the interval's sends
        on this path, each packet's size subtracted in send order.  Any
        send ends the backoff: the failure count resets and the path is
        open again.  ``misses`` of the packets went past their deadline.
        """
        self._budget_bytes = remaining_budget
        self.backoff.reset()
        self._blocked_until = 0.0
        nbytes = packets * packet_size
        log = self.log
        log.bytes_by_stream[stream] = (
            log.bytes_by_stream.get(stream, 0.0) + nbytes
        )
        log.packets_by_stream[stream] = (
            log.packets_by_stream.get(stream, 0) + packets
        )
        if misses:
            log.deadline_misses[stream] = (
                log.deadline_misses.get(stream, 0) + misses
            )
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.counter("transport.packets_delivered").inc(packets)
            metrics.counter("transport.bytes_delivered").inc(nbytes)
            if misses:
                metrics.counter("transport.deadline_misses").inc(misses)

    def refuse(self, stream: str, packet_size: int) -> None:
        """A ``packet_size`` packet of ``stream`` did not fit the budget.

        The refusal charges the backoff policy: the service keeps
        refusing until the backoff delay elapses, which keeps the
        scheduler from burning its fast path on a congested link.
        """
        self._blocked_until = self._now + self.backoff.next_delay()
        if self._obs.enabled:
            self._obs.metrics.counter("transport.offers_blocked").inc()
            self._obs.trace.emit(
                self._now,
                Category.TRANSPORT,
                "path_blocked",
                path=self.name,
                stream_id=self._obs.stream_id(stream),
                stream=stream,
                budget_bytes=self._budget_bytes,
                packet_size=packet_size,
                blocked_until=self._blocked_until,
            )
