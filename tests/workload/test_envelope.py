"""Capacity-envelope estimation: search behavior and determinism."""

import json
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.workload.envelope import estimate_envelope

FAST = dict(
    seed=0,
    iterations=2,
    probe_duration=8.0,
    max_sessions=30,
)


@pytest.fixture(scope="module")
def envelope():
    return estimate_envelope("baseline", ceiling=0.05, **FAST)


class TestSearch:
    def test_probe_bookkeeping(self, envelope):
        # Two bracket probes, plus bisections iff the bracket straddles.
        assert len(envelope.probes) in (2, 2 + FAST["iterations"])
        assert all(p.offered > 0 for p in envelope.probes)
        assert all(
            0.0 <= p.violation_rate <= 1.0 for p in envelope.probes
        )

    def test_verdict_within_bracket(self, envelope):
        assert 0.0 <= envelope.max_sustainable_scale <= 4.0
        assert envelope.max_sustainable_rate == pytest.approx(
            envelope.base_rate * envelope.max_sustainable_scale
        )

    def test_verdict_consistent_with_probes(self, envelope):
        # The reported scale is never above a probe that failed below it.
        for probe in envelope.probes:
            if not probe.sustainable:
                assert envelope.max_sustainable_scale <= probe.rate_scale

    def test_deterministic(self, envelope):
        rerun = estimate_envelope("baseline", ceiling=0.05, **FAST)
        assert envelope.checksum() == rerun.checksum()
        assert envelope.to_dict() == rerun.to_dict()

    def test_payload_json_clean(self, envelope):
        json.dumps(envelope.to_dict(), allow_nan=False)

    def test_render_smoke(self, envelope):
        text = envelope.render()
        assert "max sustainable scale" in text
        assert "probe" in text


class TestDegenerateCeilings:
    def test_unsatisfiable_load_reports_zero(self, monkeypatch):
        # A load rejected at any arrival rate: even the lightest probe
        # violates and the envelope collapses to zero capacity.
        monkeypatch.setattr(
            "repro.workload.envelope.run_scale_scenario",
            lambda *args, **kwargs: SimpleNamespace(
                offered=30, violation_rate=1.0
            ),
        )
        envelope = estimate_envelope("baseline", ceiling=0.05, **FAST)
        assert envelope.max_sustainable_scale == 0.0
        assert not envelope.probes[0].sustainable

    def test_trivial_ceiling_reports_bracket_top(self):
        envelope = estimate_envelope(
            "baseline", ceiling=0.999999, **FAST
        )
        assert envelope.max_sustainable_scale == 4.0
        # Both bracket probes sufficed; no bisection ran.
        assert len(envelope.probes) == 2


class TestValidation:
    def test_bad_ceiling(self):
        with pytest.raises(ConfigurationError):
            estimate_envelope("baseline", ceiling=0.0)
        with pytest.raises(ConfigurationError):
            estimate_envelope("baseline", ceiling=1.0)

    def test_bad_bracket(self):
        with pytest.raises(ConfigurationError):
            estimate_envelope(
                "baseline", lo_scale=2.0, hi_scale=1.0
            )

    def test_bad_iterations(self):
        with pytest.raises(ConfigurationError):
            estimate_envelope("baseline", iterations=0)
