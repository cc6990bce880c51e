"""Snapshot -> JSON -> restore is an exact fixpoint, component by component.

Every ``state_dict`` here is pushed through a real JSON round-trip
(``json.loads(json.dumps(...))``) before restoring — exactly what a
checkpoint on disk does — and the restored object must then behave
*bit-identically* to the original, not just approximately.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError
from repro.monitoring.cdf import SlidingWindowCDF
from repro.robustness.health import (
    HealthThresholds,
    PathHealthMachine,
)
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.transport.backoff import ExponentialBackoff


def roundtrip(state: dict) -> dict:
    """The exact transformation a checkpoint applies to state."""
    return json.loads(
        json.dumps(state, sort_keys=False, allow_nan=False)
    )


class TestRandomStreams:
    def test_substream_fixpoint(self):
        streams = RandomStreams(seed=42)
        a, b = streams.get("arrivals"), streams.get("noise")
        a.standard_normal(100)
        b.uniform(size=37)

        state = roundtrip(streams.state_dict())
        restored = RandomStreams(seed=42)
        restored.load_state_dict(state)

        expect_a = streams.get("arrivals").standard_normal(50)
        expect_b = streams.get("noise").uniform(size=50)
        got_a = restored.get("arrivals").standard_normal(50)
        got_b = restored.get("noise").uniform(size=50)
        assert (expect_a == got_a).all()
        assert (expect_b == got_b).all()

    def test_unused_substream_still_deterministic(self):
        streams = RandomStreams(seed=7)
        streams.get("used").normal(size=10)
        restored = RandomStreams(seed=7)
        restored.load_state_dict(roundtrip(streams.state_dict()))
        # A substream never touched before the snapshot must still
        # derive identically on both sides.
        assert (
            streams.get("later").uniform(size=5)
            == restored.get("later").uniform(size=5)
        ).all()


class TestBackoff:
    def test_fixpoint(self):
        backoff = ExponentialBackoff(base_delay=0.01, max_delay=1.0)
        delays = [backoff.next_delay() for _ in range(5)]
        assert delays  # consumed some state

        restored = ExponentialBackoff(base_delay=0.01, max_delay=1.0)
        restored.load_state_dict(roundtrip(backoff.state_dict()))
        assert restored.failures == backoff.failures
        assert restored.next_delay() == backoff.next_delay()


class TestHealthMachine:
    def drive(self, machine: PathHealthMachine, t0: float) -> list:
        """A deterministic observation sequence spanning a quarantine."""
        out = []
        t = t0
        for bw, loss in [
            (100.0, 0.0),
            (100.0, 0.0),
            (5.0, 0.6),  # loss spike -> failing
            (None, 0.0),  # probe timeout
            (None, 0.0),
            (100.0, 0.0),
            (100.0, 0.0),
            (100.0, 0.0),
        ]:
            out.extend(machine.update(t, bw, loss))
            t += 1.0
        return out

    def test_mid_quarantine_fixpoint(self):
        thresholds = HealthThresholds()
        original = PathHealthMachine("p1", thresholds)
        # Drive into a failure so backoff/baseline/counters are hot.
        self.drive(original, 0.0)

        restored = PathHealthMachine("p1", thresholds)
        restored.load_state_dict(roundtrip(original.state_dict()))

        assert restored.state == original.state
        assert restored.baseline_mbps == original.baseline_mbps
        assert restored.blocked_until == original.blocked_until
        # Identical futures: same transitions, same final state.
        more_a = self.drive(original, 100.0)
        more_b = self.drive(restored, 100.0)
        assert [str(tr) for tr in more_a] == [str(tr) for tr in more_b]
        assert original.state_dict() == restored.state_dict()


class TestSlidingWindowCDF:
    def test_fixpoint(self):
        original = SlidingWindowCDF(window=20)
        for i in range(55):
            original.update(((i * 13) % 29) * 0.5)

        restored = SlidingWindowCDF(window=20)
        restored.load_state_dict(roundtrip(original.state_dict()))
        assert restored.window_values() == original.window_values()

        for v in [1.25, 7.0, 0.25]:
            original.update(v)
            restored.update(v)
        snap_a, snap_b = original.snapshot(), restored.snapshot()
        for q in [10.0, 50.0, 90.0]:
            assert snap_a.percentile(q) == snap_b.percentile(q)

    def test_fixpoint_past_eviction(self):
        window = 32
        original = SlidingWindowCDF(window)
        # Overfill so the FIFO has already evicted (the hard case:
        # restore must rebuild the sorted buffer without re-evicting).
        for i in range(100):
            original.update(float((i * 37) % 50) / 7.0)

        restored = SlidingWindowCDF(window)
        restored.load_state_dict(roundtrip(original.state_dict()))
        assert restored.window_values() == original.window_values()
        assert list(restored.snapshot().samples) == list(
            original.snapshot().samples
        )

        for v in [3.3, 0.1, 9.9]:
            original.update(v)
            restored.update(v)
        assert list(restored.snapshot().samples) == list(
            original.snapshot().samples
        )

    def test_window_mismatch_rejected(self):
        original = SlidingWindowCDF(8)
        original.update(1.0)
        other = SlidingWindowCDF(16)
        other.update(2.0)
        with pytest.raises(
            CheckpointError, match="have 16, checkpoint has 8"
        ):
            other.load_state_dict(original.state_dict())
        # A refused restore leaves the window as it was.
        assert other.window_values() == [2.0]


class TestSimulatorQueue:
    def test_mid_flight_fixpoint_with_cancellations(self):
        fired_a: list = []
        sim = Simulator()
        callbacks = {
            "tick": lambda: fired_a.append(("tick", sim.now)),
            "tock": lambda: fired_a.append(("tock", sim.now)),
        }
        for i in range(10):
            sim.schedule(float(i + 1), callbacks["tick"], key="tick")
        doomed = [
            sim.schedule(float(i + 1), callbacks["tock"], key="tock")
            for i in range(5)
        ]
        for event in doomed[1:]:
            event.cancel()
        sim.run(until=3.5)

        state = roundtrip(sim.state_dict())

        fired_b: list = []
        restored = Simulator()
        restored.load_state_dict(
            state,
            callbacks={
                "tick": lambda: fired_b.append(("tick", restored.now)),
                "tock": lambda: fired_b.append(("tock", restored.now)),
            },
        )
        assert restored.now == sim.now
        assert len(restored) == len(sim)
        assert restored.cancelled_events == sim.cancelled_events

        sim.run()
        restored.run()
        # Continuations fire the same keys at the same times in the
        # same order (fired_b only ever sees post-restore events).
        assert fired_b == [f for f in fired_a if f[1] > 3.5]
        assert sim.now == restored.now
        assert sim._seq_next == restored._seq_next

    def test_anonymous_live_event_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)  # no key
        with pytest.raises(CheckpointError, match="no\\s+key"):
            sim.state_dict()

    def test_cancelled_anonymous_event_is_fine(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        state = sim.state_dict()
        restored = Simulator()
        restored.load_state_dict(roundtrip(state))
        restored.run()  # the cancelled no-op entry never fires
        assert restored.now == 0.0

    def test_unknown_key_rejected_on_load(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, key="known")
        state = sim.state_dict()
        restored = Simulator()
        with pytest.raises(CheckpointError, match="known"):
            restored.load_state_dict(state, callbacks={})
