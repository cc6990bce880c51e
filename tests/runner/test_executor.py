"""run_specs: fault handling, retries, progress events, determinism.

Selftest specs exercise the executor's plumbing (crash/timeout/retry)
without paying for real experiments; the byte-equivalence tests on real
figures live in ``test_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.context import Observability
from repro.obs.events import Category
from repro.runner import RunSpec, run_specs

pytestmark = pytest.mark.usefixtures("selftest_task")


def echo_spec(name: str, value) -> RunSpec:
    return RunSpec(
        kind="selftest", name=name, params={"mode": "echo", "value": value}
    )


class TestHappyPath:
    def test_outcomes_in_submission_order(self):
        specs = [echo_spec(f"s{i}", i) for i in range(5)]
        report = run_specs(specs, workers=2, timeout_s=60.0)
        assert [o.spec.name for o in report.outcomes] == [
            s.name for s in specs
        ]
        assert [o.payload["value"] for o in report.outcomes] == list(
            range(5)
        )
        assert report.all_ok and report.executed == 5

    def test_inline_mode_matches_pool(self):
        specs = [echo_spec(f"s{i}", i) for i in range(3)]
        inline = run_specs(specs, workers=0)
        pooled = run_specs(specs, workers=2, timeout_s=60.0)
        assert [o.payload for o in inline.outcomes] == [
            o.payload for o in pooled.outcomes
        ]

    def test_duplicate_specs_rejected(self):
        spec = echo_spec("dup", 1)
        with pytest.raises(ConfigurationError):
            run_specs([spec, spec], workers=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("workers", -1),
            ("retries", -1),
            ("timeout_s", 0.0),
            ("hang_timeout_s", 0.0),
        ],
    )
    def test_bad_budgets_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            run_specs([echo_spec("s", 1)], **{name: value})


class TestFaultPaths:
    def test_exception_fails_without_retry(self):
        spec = RunSpec(
            kind="selftest", name="boom", params={"mode": "raise"}
        )
        report = run_specs([spec], workers=1, retries=3, timeout_s=60.0)
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # deterministic: no retry
        assert "RuntimeError" in outcome.error
        assert not report.all_ok

    def test_crash_exhausts_retries(self):
        spec = RunSpec(
            kind="selftest", name="crash", params={"mode": "crash"}
        )
        report = run_specs([spec], workers=1, retries=1, timeout_s=60.0)
        outcome = report.outcomes[0]
        assert outcome.status == "crashed"
        assert outcome.attempts == 2
        assert "exitcode" in outcome.error

    def test_crash_once_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "marker"
        spec = RunSpec(
            kind="selftest",
            name="flaky",
            params={
                "mode": "crash_once",
                "marker": str(marker),
                "value": "ok",
            },
        )
        report = run_specs([spec], workers=1, retries=1, timeout_s=60.0)
        outcome = report.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.payload["value"] == "ok"
        assert marker.exists()
        # The outcome's record keeps the retry, not just the status.
        record = outcome.record(0)
        assert (record["status"], record["attempts"]) == ("ok", 2)

    def test_timeout_terminates_worker(self):
        spec = RunSpec(
            kind="selftest",
            name="slow",
            params={"mode": "sleep", "sleep_s": 30.0},
        )
        report = run_specs([spec], workers=1, retries=0, timeout_s=0.5)
        outcome = report.outcomes[0]
        assert outcome.status == "timeout"
        assert "timeout" in outcome.error

    def test_one_failure_does_not_sink_the_run(self):
        specs = [
            echo_spec("good1", 1),
            RunSpec(kind="selftest", name="bad", params={"mode": "raise"}),
            echo_spec("good2", 2),
        ]
        report = run_specs(specs, workers=2, timeout_s=60.0)
        statuses = [o.status for o in report.outcomes]
        assert statuses == ["ok", "failed", "ok"]
        assert report.failed == 1


class TestObsEvents:
    def test_runner_events_stream_through_obs(self):
        obs = Observability()
        specs = [echo_spec("s", 1)]
        run_specs(specs, workers=1, timeout_s=60.0, obs=obs)
        run_specs(specs, workers=1, timeout_s=60.0, obs=obs)
        names = [e.name for e in obs.trace.events(category=Category.RUNNER)]
        assert names.count("run_start") == 2
        assert names.count("run_end") == 2
        # No store of earlier results: the second run executes again.
        assert names.count("spec_start") == names.count("spec_end") == 2

    def test_retry_event_emitted(self, tmp_path):
        obs = Observability()
        marker = tmp_path / "marker"
        spec = RunSpec(
            kind="selftest",
            name="flaky",
            params={"mode": "crash_once", "marker": str(marker)},
        )
        run_specs([spec], workers=1, retries=1, timeout_s=60.0, obs=obs)
        names = [e.name for e in obs.trace.events(category=Category.RUNNER)]
        assert "spec_retry" in names
