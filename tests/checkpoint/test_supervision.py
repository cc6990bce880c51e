"""Worker supervision: watchdog, escalation, stderr capture, interrupt."""

from __future__ import annotations

import os
import signal

import pytest

import repro.runner.executor as executor_mod
from repro.checkpoint import InterruptFlag
from repro.runner.executor import _retry_delay, run_specs
from repro.runner.spec import RunSpec


def selftest(name: str, **params) -> RunSpec:
    return RunSpec(kind="selftest", name=name, params=params, seed=0)


@pytest.fixture
def fast_escalation(monkeypatch):
    """Shrink the SIGTERM grace and retry backoff so kill-escalation
    tests stay quick."""
    monkeypatch.setattr(executor_mod, "_TERM_GRACE_S", 0.5)
    monkeypatch.setattr(executor_mod, "_RETRY_BACKOFF_S", 0.01)


class TestHangWatchdog:
    def test_hung_worker_terminated_killed_and_resumed(
        self, tmp_path, fast_escalation
    ):
        # hang_once ignores SIGTERM and stops heartbeating: the
        # watchdog must flag it hung, escalate terminate -> kill, and
        # the retry (marker now present) must succeed.
        marker = tmp_path / "hung.marker"
        report = run_specs(
            [
                selftest(
                    "wedge",
                    mode="hang_once",
                    marker=str(marker),
                    value=7,
                )
            ],
            workers=1,
            retries=1,
            hang_timeout_s=0.5,
        )
        outcome = report.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.payload["value"] == 7
        assert marker.exists()

    def test_permanently_hung_worker_reported(
        self, fast_escalation
    ):
        report = run_specs(
            [selftest("wedge", mode="hang")],
            workers=1,
            retries=0,
            hang_timeout_s=0.5,
        )
        outcome = report.outcomes[0]
        assert outcome.status == "hung"
        assert "no heartbeat" in outcome.error
        assert not report.all_ok

    def test_slow_but_heartbeating_is_not_hung(self):
        # Heartbeats arrive every <= 0.25 s; the run takes 1.5 s. With
        # a 0.6 s hang timeout the watchdog must stay quiet: slow is
        # not hung.
        report = run_specs(
            [selftest("slow", mode="sleep", sleep_s=1.5, value=1)],
            workers=1,
            retries=0,
            hang_timeout_s=0.6,
        )
        outcome = report.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 1


class TestStderrCapture:
    def test_crash_stderr_tail_lands_in_outcome(self):
        report = run_specs(
            [
                selftest(
                    "noisy",
                    mode="stderr",
                    message="boom-tail-probe-42",
                )
            ],
            workers=1,
            retries=0,
        )
        outcome = report.outcomes[0]
        assert outcome.status == "crashed"
        assert "boom-tail-probe-42" in (outcome.stderr_tail or "")
        record = outcome.manifest_record(0)
        assert "boom-tail-probe-42" in record["stderr_tail"]

    def test_clean_worker_has_no_tail(self):
        report = run_specs(
            [selftest("quiet", mode="echo", value=1)], workers=1
        )
        assert report.outcomes[0].stderr_tail is None


class TestRetryBackoff:
    def test_deterministic(self):
        assert _retry_delay("abc", 1, 0.05) == _retry_delay("abc", 1, 0.05)

    def test_exponential_growth(self):
        base = _retry_delay("abc", 1, 0.05)
        assert _retry_delay("abc", 3, 0.05) > 2 * base

    def test_jitter_decorrelates_specs(self):
        assert _retry_delay("abc", 1, 0.05) != _retry_delay("xyz", 1, 0.05)

    def test_bounds(self):
        # attempt 1 at base b lands in [b, 2b).
        delay = _retry_delay("anything", 1, 0.05)
        assert 0.05 <= delay < 0.10


class TestGracefulInterrupt:
    def _tripped_flag(self) -> InterruptFlag:
        flag = InterruptFlag().install()
        os.kill(os.getpid(), signal.SIGTERM)  # latched, not fatal
        assert flag.triggered
        return flag

    def test_pool_abandons_pending_specs(self, fast_escalation):
        flag = self._tripped_flag()
        try:
            report = run_specs(
                [selftest(f"s{i}", mode="echo", value=i) for i in range(3)],
                workers=2,
                interrupt=flag,
            )
        finally:
            flag.restore()
        assert report.interrupted == 3
        assert report.failed == 0
        assert not report.all_ok
        assert {o.status for o in report.outcomes} == {"interrupted"}
        assert all(
            "SIGTERM" in o.error for o in report.outcomes
        )
        assert report.summary_record()["interrupted"] == 3

    def test_inline_mode_honors_interrupt(self):
        flag = self._tripped_flag()
        try:
            report = run_specs(
                [selftest("s", mode="echo", value=1)],
                workers=0,
                interrupt=flag,
            )
        finally:
            flag.restore()
        assert report.outcomes[0].status == "interrupted"

    def test_untriggered_flag_changes_nothing(self):
        flag = InterruptFlag()  # never installed, never tripped
        report = run_specs(
            [selftest("s", mode="echo", value=5)],
            workers=1,
            interrupt=flag,
        )
        assert report.all_ok
        assert report.interrupted == 0
