"""Observability context: enabled/disabled wiring and stream-ID joins."""

from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTraceBus,
    Observability,
    TraceBus,
)


class TestConstruction:
    def test_enabled_context_gets_real_components(self):
        obs = Observability()
        assert obs.enabled is True
        assert isinstance(obs.trace, TraceBus)
        assert isinstance(obs.metrics, MetricsRegistry)

    def test_disabled_context_gets_null_components(self):
        obs = Observability(enabled=False)
        assert obs.enabled is False
        assert isinstance(obs.trace, NullTraceBus)
        assert isinstance(obs.metrics, NullMetricsRegistry)

    def test_disabled_classmethod_is_the_shared_null_context(self):
        assert Observability.disabled() is NULL_OBS
        assert NULL_OBS.enabled is False
        # The hot-path guard is a slot read, never a property.
        assert "enabled" in Observability.__slots__

    def test_trace_capacity_is_forwarded(self):
        obs = Observability(trace_capacity=4)
        assert obs.trace.capacity == 4


class TestStreamIds:
    def test_bind_and_lookup(self):
        obs = Observability()
        obs.bind_stream("gridftp", 1)
        obs.bind_streams({"video": 2, "audio": 3})
        assert obs.stream_id("gridftp") == 1
        assert obs.stream_id("video") == 2
        assert obs.stream_id("missing") is None
        assert obs.stream_ids() == {"gridftp": 1, "video": 2, "audio": 3}

    def test_stream_ids_returns_a_copy(self):
        obs = Observability()
        obs.bind_stream("a", 1)
        table = obs.stream_ids()
        table["b"] = 2
        assert obs.stream_id("b") is None

    def test_binding_into_null_context_is_a_silent_noop(self):
        # NULL_OBS is process-wide; it must never accumulate state.
        NULL_OBS.bind_stream("leak", 99)
        NULL_OBS.bind_streams({"leak2": 100})
        assert NULL_OBS.stream_id("leak") is None
        assert NULL_OBS.stream_ids() == {}
