"""Packet queues and exponential backoff."""

import pytest

from repro.errors import ConfigurationError
from repro.transport.backoff import ExponentialBackoff
from repro.transport.packet import PacketQueue


class TestPacket:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            PacketQueue("s", size=0)


class TestBackoff:
    def test_doubles_until_cap(self):
        backoff = ExponentialBackoff(base_delay=0.01, factor=2.0, max_delay=0.05)
        delays = [backoff.next_delay() for _ in range(5)]
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.05, 0.05])

    def test_reset_restarts(self):
        backoff = ExponentialBackoff(base_delay=0.01)
        backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff.failures == 0
        assert backoff.next_delay() == pytest.approx(0.01)

    def test_counts_failures(self):
        backoff = ExponentialBackoff()
        for _ in range(3):
            backoff.next_delay()
        assert backoff.failures == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(base_delay=0.0)
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(factor=0.5)
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(base_delay=1.0, max_delay=0.5)
