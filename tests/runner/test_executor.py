"""run_specs: fault handling, retries, caching, determinism.

Selftest specs exercise the executor's plumbing (crash/timeout/retry)
without paying for real experiments; the byte-equivalence tests on real
figures live in ``test_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.context import Observability
from repro.obs.events import Category
from repro.runner import ResultCache, RunSpec, load_manifest, run_specs


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
        manifest_path = tmp_path / "manifest.jsonl"
        report = run_specs(
            [spec],
            workers=1,
            retries=1,
            timeout_s=60.0,
            manifest_path=str(manifest_path),
        )
        outcome = report.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.payload["value"] == "ok"
        assert marker.exists()
        # The manifest records the retry, not just the outcome.
        (record,) = load_manifest(manifest_path).entries
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


class TestCacheIntegration:
    def test_warm_rerun_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [echo_spec(f"s{i}", i) for i in range(3)]
        cold = run_specs(
            specs, workers=1, cache=cache, fingerprint="fp", timeout_s=60.0
        )
        assert cold.executed == 3 and cold.cached == 0
        warm = run_specs(
            specs, workers=1, cache=cache, fingerprint="fp", timeout_s=60.0
        )
        assert warm.executed == 0 and warm.cached == 3
        assert [o.payload for o in warm.outcomes] == [
            o.payload for o in cold.outcomes
        ]

    def test_fingerprint_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [echo_spec("s", 1)]
        run_specs(specs, workers=0, cache=cache, fingerprint="fp1")
        rerun = run_specs(specs, workers=0, cache=cache, fingerprint="fp2")
        assert rerun.executed == 1 and rerun.cached == 0

    def test_refresh_bypasses_reads_but_stores(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [echo_spec("s", 1)]
        run_specs(specs, workers=0, cache=cache, fingerprint="fp")
        forced = run_specs(
            specs, workers=0, cache=cache, fingerprint="fp", refresh=True
        )
        assert forced.executed == 1 and forced.cached == 0
        warm = run_specs(specs, workers=0, cache=cache, fingerprint="fp")
        assert warm.cached == 1

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(
            kind="selftest", name="bad", params={"mode": "raise"}
        )
        run_specs(
            [spec], workers=1, cache=cache, fingerprint="fp", timeout_s=60.0
        )
        assert cache.entry_count() == 0


class TestManifestAndObs:
    def test_manifest_narrates_the_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        specs = [echo_spec(f"s{i}", i) for i in range(3)]
        report = run_specs(
            specs,
            workers=2,
            fingerprint="fp",
            timeout_s=60.0,
            manifest_path=str(path),
        )
        manifest = load_manifest(path)
        assert manifest.header["fingerprint"] == "fp"
        assert manifest.header["n_specs"] == 3
        assert manifest.summary["executed"] == 3
        ordered = manifest.entries_in_submission_order()
        assert [e["name"] for e in ordered] == ["s0", "s1", "s2"]
        assert all(e["status"] == "ok" for e in ordered)
        assert report.summary_record()["total"] == 3

    def test_runner_events_stream_through_obs(self, tmp_path):
        obs = Observability()
        cache = ResultCache(tmp_path / "cache")
        specs = [echo_spec("s", 1)]
        run_specs(specs, workers=1, cache=cache, fingerprint="fp",
                  timeout_s=60.0, obs=obs)
        run_specs(specs, workers=1, cache=cache, fingerprint="fp",
                  timeout_s=60.0, obs=obs)
        names = [e.name for e in obs.trace.events(category=Category.RUNNER)]
        assert names.count("run_start") == 2
        assert names.count("run_end") == 2
        assert "spec_start" in names and "spec_end" in names
        assert "cache_hit" in names  # the second run hit

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
