"""Path services: budgets, blocking, backoff interplay, validation."""

import pytest

from repro.errors import ConfigurationError
from repro.transport.backoff import ExponentialBackoff
from repro.transport.service import PathService


def send(
    service: PathService,
    deadline: float = 0.0,
    stream: str = "s",
    size: int = 1000,
) -> bool:
    """One packet through the fast path's settle/refuse calls.

    A blocked service is skipped; a packet beyond the budget is refused;
    otherwise the packet is settled, a miss if sent past its deadline.
    """
    if service.blocked:
        return False
    if size > service.remaining_budget:
        service.refuse(stream, size)
        return False
    missed = int(service.now > deadline)
    service.settle(stream, size, 1, missed, service.remaining_budget - size)
    return True


class TestOffer:
    def test_delivers_within_budget(self):
        service = PathService("A")
        service.begin_interval(0.0, 2500)
        assert send(service)
        assert send(service)
        assert service.remaining_budget == 500

    def test_blocks_beyond_budget(self):
        service = PathService("A")
        service.begin_interval(0.0, 1500)
        assert send(service)
        assert not send(service)
        assert service.blocked

    def test_backoff_window_refuses_even_with_budget(self):
        service = PathService(
            "A", backoff=ExponentialBackoff(base_delay=0.5, max_delay=1.0)
        )
        service.begin_interval(0.0, 500)
        assert not send(service)  # too big -> backoff starts
        service.begin_interval(0.1, 10_000)  # budget plenty, still backing off
        assert not send(service)
        service.begin_interval(0.6, 10_000)  # backoff elapsed
        assert send(service)

    def test_success_resets_backoff(self):
        backoff = ExponentialBackoff(base_delay=0.01)
        service = PathService("A", backoff=backoff)
        service.begin_interval(0.0, 500)
        send(service)  # blocked
        assert backoff.failures == 1
        service.begin_interval(1.0, 10_000)
        send(service)
        assert backoff.failures == 0


class TestAccounting:
    def test_per_stream_bytes(self):
        service = PathService("A")
        service.begin_interval(0.0, 10_000)
        send(service, 0.0, "x")
        send(service, 1.0, "y")
        send(service, 2.0, "x")
        assert service.log.bytes_by_stream == {"x": 2000.0, "y": 1000.0}
        assert service.log.packets_by_stream == {"x": 2, "y": 1}

    def test_deadline_misses_counted(self):
        service = PathService("A")
        service.begin_interval(5.0, 10_000)
        send(service, 0.0)  # deadline 0.0 < sent at 5.0
        assert service.log.deadline_misses == {"s": 1}


class TestFluidMode:
    def test_negative_budget_rejected(self):
        service = PathService("A")
        with pytest.raises(ConfigurationError):
            service.begin_interval(0.0, -5)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            PathService("")
