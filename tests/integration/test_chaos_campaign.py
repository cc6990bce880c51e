"""Chaos campaigns: detection, remap, recovery, and degradation ordering."""

import numpy as np
import pytest

from repro.apps.smartpointer import smartpointer_streams
from repro.harness.chaos import run_chaos_campaign
from repro.network.emulab import make_figure8_testbed
from repro.network.faults import FaultCampaign, correlated_outage
from repro.robustness.health import PathHealth
from repro.transport.session import run_packet_session


@pytest.fixture(scope="module")
def realization():
    """Figure-8 testbed with path B light enough to host a failover."""
    testbed = make_figure8_testbed(
        profile_a="abilene-moderate", profile_b="light"
    )
    return testbed.realize(seed=41, duration=220.0, dt=0.1)


@pytest.fixture(scope="module")
def outage_campaign():
    """A full outage on path A (the best path) mid-session."""
    return FaultCampaign(
        faults=tuple(correlated_outage(["A"], start=30.0, duration=15.0)),
        name="outage-A",
    )


@pytest.fixture(scope="module")
def outage_report(realization, outage_campaign):
    return run_chaos_campaign(
        realization, smartpointer_streams(), outage_campaign, duration=120.0
    )


class TestOutageOnBestPath:
    def test_detected_within_bounded_window(self, outage_report):
        # Default thresholds: 3 degrade + 3 + 3 fail windows at dt=0.1 s
        # puts the first transition well under two seconds after onset.
        assert outage_report.detected
        assert 0.0 <= outage_report.time_to_detect <= 2.0

    def test_recovered_within_backoff_bound(self, outage_report):
        # Recovery waits out the exponential backoff gate plus the probe
        # confirmation, so it is bounded by the backoff cap.
        assert outage_report.recovered
        assert outage_report.time_to_recover <= 30.0 + 1.0

    def test_remap_moved_guaranteed_streams(self, outage_report):
        assert outage_report.remap_count >= 2  # away and (maybe) back
        # Guaranteed streams kept flowing: the violation window is a
        # fraction of the 15 s outage, not the whole of it.
        for name in ("Atom", "Bond1"):
            assert outage_report.violation_seconds[name] <= 15.0

    def test_guaranteed_attainment_beats_elastic_during_fault(
        self, realization, outage_campaign, outage_report
    ):
        # During the outage the elastic stream is shed (recovery
        # isolation) while the guaranteed streams ride the backup path:
        # guaranteed attainment must not be the thing sacrificed.
        transitions = [str(e) for e in outage_report.events]
        assert any("shed elastic" in e for e in transitions)
        for name in ("Atom", "Bond1"):
            attainment = outage_report.attainment[name]
            assert attainment is not None and attainment >= 0.85

    def test_quarantined_path_reenters_through_probation(self, outage_report):
        # The failed path must pass through RECOVERING (probe-confirmed)
        # before serving again — never FAILED -> HEALTHY directly.
        a_transitions = [
            t for t in outage_report.transitions if t.path == "A"
        ]
        for prev, nxt in zip(a_transitions, a_transitions[1:]):
            if nxt.new is PathHealth.HEALTHY:
                assert prev.new is not PathHealth.FAILED
                assert nxt.old in (
                    PathHealth.RECOVERING, PathHealth.DEGRADED
                )


class TestDeterminism:
    def test_same_seed_same_report(self, realization):
        reports = [
            run_chaos_campaign(
                realization,
                smartpointer_streams(),
                FaultCampaign.random(["A", "B"], duration=80.0, seed=7),
            )
            for _ in range(2)
        ]
        assert reports[0].time_to_detect == reports[1].time_to_detect
        assert reports[0].time_to_recover == reports[1].time_to_recover
        assert reports[0].violation_seconds == reports[1].violation_seconds
        assert (
            reports[0].packets_lost_during_remap
            == reports[1].packets_lost_during_remap
        )
        assert reports[0].remap_count == reports[1].remap_count

    def test_report_is_finite(self, realization):
        campaign = FaultCampaign.random(["A", "B"], duration=80.0, seed=7)
        report = run_chaos_campaign(
            realization, smartpointer_streams(), campaign
        )
        assert report.detected and report.recovered
        assert np.isfinite(report.time_to_detect)
        assert np.isfinite(report.time_to_recover)


class TestPacketSessionQuarantine:
    def test_no_guaranteed_packets_on_quarantined_path(self, realization):
        campaign = FaultCampaign(
            faults=tuple(
                correlated_outage(["A"], start=40.0, duration=20.0)
            ),
            name="outage-A",
        )
        streams = smartpointer_streams()
        result = run_packet_session(
            realization, streams, tw=1.0, warmup_windows=30,
            campaign=campaign,
        )
        quarantined_windows = result.quarantine_series["A"]
        assert any(quarantined_windows)  # the outage was quarantined
        for spec in streams:
            if not spec.guaranteed:
                continue
            on_a = result.sent[spec.name]["A"]
            assert all(
                sent == 0
                for sent, quarantined in zip(on_a, quarantined_windows)
                if quarantined
            )

    def test_attainment_survives_the_outage(self, realization):
        campaign = FaultCampaign(
            faults=tuple(
                correlated_outage(["A"], start=40.0, duration=20.0)
            ),
        )
        streams = smartpointer_streams()
        result = run_packet_session(
            realization, streams, tw=1.0, warmup_windows=30,
            campaign=campaign,
        )
        for spec in streams:
            if spec.guaranteed:
                assert result.attainment(spec) >= 0.9


@pytest.mark.chaos
class TestChaosSweep:
    """Multi-seed sweep; excluded from tier-1 (run with -m chaos)."""

    def test_every_seed_detects_and_recovers(self, realization):
        for seed in range(5):
            campaign = FaultCampaign.random(
                ["A", "B"], duration=80.0, seed=seed
            )
            report = run_chaos_campaign(
                realization, smartpointer_streams(), campaign
            )
            assert report.detected, report.campaign
            assert report.recovered, report.campaign
            for name in ("Atom", "Bond1"):
                assert report.violation_seconds[name] < 40.0
