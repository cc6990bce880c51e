"""Kill-injection: real SIGKILLs, supervised restarts, identical bytes."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.crash import (
    KillSwitch,
    run_crash_test,
    seeded_kill_points,
)


class TestSeededKillPoints:
    def test_deterministic_and_sorted(self):
        a = seeded_kill_points(20.0, 4, seed=3)
        b = seeded_kill_points(20.0, 4, seed=3)
        assert a == b == sorted(a)
        assert len(a) == 4
        assert all(2.0 <= t <= 18.0 for t in a)

    def test_seed_and_label_decorrelate(self):
        assert seeded_kill_points(20.0, 3, seed=0) != seeded_kill_points(
            20.0, 3, seed=1
        )
        assert seeded_kill_points(
            20.0, 3, seed=0, label="x"
        ) != seeded_kill_points(20.0, 3, seed=0, label="y")

    @pytest.mark.parametrize(
        "kwargs",
        [{"duration": 10.0, "n": 0}, {"duration": 0.0, "n": 1}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            seeded_kill_points(kwargs["duration"], kwargs["n"], seed=0)


class TestKillSwitch:
    def test_counter_survives_marker_io(self, tmp_path):
        switch = KillSwitch(tmp_path, [5.0, 9.0])
        assert switch.kills_done == 0
        # Before the first point: no kill, no marker.
        switch.maybe_kill(4.99)
        assert not switch.marker_path.exists()
        # A pre-existing marker (a previous attempt died here) counts.
        switch.marker_path.write_text(json.dumps({"kills": 2}))
        assert switch.kills_done == 2
        # All points delivered: reaching later times never kills again.
        switch.maybe_kill(100.0)

    def test_corrupt_marker_reads_as_zero(self, tmp_path):
        switch = KillSwitch(tmp_path, [5.0])
        switch.marker_path.write_text("not json")
        assert switch.kills_done == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_sigkilled_run_resumes_byte_identical(workers, tmp_path):
    """The PR's acceptance gate: >= 3 real SIGKILLs at seeded points,
    supervised restarts resuming from verified checkpoints, and a
    survivor report byte-identical to the uninterrupted golden — for
    the serial and the parallel executor alike."""
    summary = run_crash_test(
        scenario="baseline",
        seed=0,
        kills=3,
        duration=10.0,
        max_sessions=80,
        checkpoint_every=1.0,
        workers=workers,
        work_dir=tmp_path / f"w{workers}",
        manifest_path=tmp_path / f"manifest-w{workers}.jsonl",
    )
    assert summary["status"] == "ok"
    assert summary["identical"], summary
    assert summary["passed"], summary
    assert summary["attempts"] == 4  # 3 kills + the surviving attempt
    assert len(summary["kill_points"]) == 3
    assert summary["survivor_checksum"] == summary["golden_checksum"]

    # The manifest records the supervised retries.
    records = [
        json.loads(line)
        for line in (tmp_path / f"manifest-w{workers}.jsonl")
        .read_text()
        .splitlines()
    ]
    specs = [r for r in records if r.get("type") == "spec"]
    assert specs and specs[-1]["attempts"] == 4
    assert specs[-1]["status"] == "ok"


def test_crash_test_without_kills_does_not_pass(monkeypatch, tmp_path):
    """Identical bytes from a survivor that was never killed prove
    nothing: the verdict fails unless every kill point fired.  The
    forked worker inherits the disarmed switch."""
    monkeypatch.setattr(KillSwitch, "maybe_kill", lambda self, t: None)
    summary = run_crash_test(
        scenario="baseline",
        seed=0,
        kills=2,
        duration=6.0,
        max_sessions=30,
        checkpoint_every=1.0,
        workers=1,
        work_dir=tmp_path,
    )
    assert summary["identical"]
    assert summary["attempts"] == 1
    assert not summary["passed"]


def test_crash_test_manifests_match_across_widths(tmp_path):
    """Serial and parallel survivors don't just match the golden —
    their payload digests match each other."""
    summaries = [
        run_crash_test(
            scenario="baseline",
            seed=0,
            kills=2,
            duration=8.0,
            max_sessions=60,
            checkpoint_every=1.0,
            workers=workers,
            work_dir=tmp_path / f"w{workers}",
        )
        for workers in (1, 2)
    ]
    assert all(s["passed"] for s in summaries)
    assert (
        summaries[0]["survivor_checksum"]
        == summaries[1]["survivor_checksum"]
    )
