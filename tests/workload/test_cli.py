"""The ``python -m repro.workload`` CLI, in-process and ``--shards N``."""

import json

import pytest

from repro.cluster import run_partitioned
from repro.workload.cli import main

FAST_ARGS = [
    "--scenario",
    "baseline",
    "--seed",
    "0",
    "--duration",
    "10",
    "--max-sessions",
    "25",
]


def test_scenario_run_prints_report_and_checksum(capsys):
    assert main(FAST_ARGS) == 0
    out = capsys.readouterr().out
    assert "workload 'baseline' seed=0" in out
    assert "checksum " in out
    assert "sessions/sec" in out
    assert "steps/sec" in out


def test_json_out_carries_canonical_payload(tmp_path, capsys):
    json_out = tmp_path / "report.json"
    assert main(FAST_ARGS + ["--json-out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    assert payload["scenario"] == "baseline"
    assert payload["offered"] == 25
    # Wall-clock rates never leak into the canonical payload.
    assert "sessions_per_sec" not in payload
    out = capsys.readouterr().out
    assert str(json_out) in out


def test_trace_and_metrics_exports(tmp_path, capsys):
    trace_out = tmp_path / "trace.jsonl"
    metrics_out = tmp_path / "metrics.json"
    assert (
        main(
            FAST_ARGS
            + [
                "--trace-out",
                str(trace_out),
                "--metrics-out",
                str(metrics_out),
            ]
        )
        == 0
    )
    lines = trace_out.read_text().strip().splitlines()
    assert any('"cat": "workload"' in line for line in lines)
    metrics = json.loads(metrics_out.read_text())
    assert "admission.admitted" in metrics["current"]
    capsys.readouterr()


def test_envelope_mode(tmp_path, capsys):
    json_out = tmp_path / "envelope.json"
    code = main(
        [
            "--scenario",
            "baseline",
            "--envelope",
            "--iterations",
            "1",
            "--probe-duration",
            "6",
            "--max-sessions",
            "15",
            "--json-out",
            str(json_out),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "capacity envelope" in out
    payload = json.loads(json_out.read_text())
    assert "max_sustainable_scale" in payload


def test_unknown_scenario_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--scenario", "nope"])
    capsys.readouterr()


def _usage_error(argv, capsys, base=FAST_ARGS):
    """stderr of a run that argparse refused (exit 2, usage text)."""
    with pytest.raises(SystemExit) as excinfo:
        main(base + argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    return err


class TestFlagValidation:
    """Checkpoint flags without a checkpoint dir must fail fast."""

    def test_resume_requires_checkpoint_dir(self, capsys):
        err = _usage_error(["--resume"], capsys)
        assert "--resume requires --checkpoint-dir" in err

    def test_kill_at_requires_checkpoint_dir(self, capsys):
        err = _usage_error(["--kill-at", "5.0"], capsys)
        assert "--checkpoint-dir" in err

    def test_checkpoint_every_requires_checkpoint_dir(self, capsys):
        err = _usage_error(["--checkpoint-every", "2.0"], capsys)
        assert "--checkpoint-every requires --checkpoint-dir" in err

    def test_kill_at_requires_explicit_checkpoint_every(
        self, tmp_path, capsys
    ):
        err = _usage_error(
            [
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
                "--kill-at",
                "5.0",
            ],
            capsys,
        )
        assert "--checkpoint-every" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--checkpoint-dir", "ckpt", "--checkpoint-every", "0"],
            ["--checkpoint-dir", "ckpt", "--checkpoint-every", "-1"],
            ["--shards", "1", "--hang-timeout", "0"],
            ["--shards", "1", "--hang-timeout", "-5"],
        ],
        ids=lambda flags: " ".join(flags[2:]),
    )
    def test_nonpositive_cadence_is_a_usage_error(self, flags, capsys):
        err = _usage_error(flags, capsys)
        assert f"{flags[2]} must be positive" in err

    def test_checkpoint_dir_alone_still_runs(self, tmp_path, capsys):
        assert (
            main(
                FAST_ARGS
                + ["--checkpoint-dir", str(tmp_path / "ckpt")]
            )
            == 0
        )
        assert "checksum " in capsys.readouterr().out


class TestEnvelopeFlags:
    """An envelope search and one run share no flags but the scenario's."""

    ENVELOPE = ["--scenario", "baseline", "--envelope"]

    @pytest.mark.parametrize(
        "flag",
        [
            ["--rate-scale", "3"],
            ["--duration", "50"],
            ["--shards", "2"],
            ["--trace-out", "trace.jsonl"],
            ["--metrics-out", "metrics.json"],
            ["--profile-out", "profile.json"],
            ["--checkpoint-dir", "ckpt"],
            ["--checkpoint-every", "2.0"],
            ["--resume"],
            ["--kill-at", "5.0"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_run_flags_refuse_envelope(self, flag, capsys):
        err = _usage_error(flag, capsys, base=self.ENVELOPE)
        assert f"{flag[0]} cannot be combined with --envelope" in err

    @pytest.mark.parametrize(
        "flag",
        [["--ceiling", "0.5"], ["--iterations", "1"], ["--probe-duration", "4"]],
        ids=lambda flag: flag[0],
    )
    def test_search_flags_require_envelope(self, flag, capsys):
        err = _usage_error(flag, capsys)
        assert f"{flag[0]} requires --envelope" in err

    def test_metrics_format_requires_metrics_out(self, capsys):
        err = _usage_error(["--metrics-format", "json"], capsys)
        assert "--metrics-format requires --metrics-out" in err


class TestSharded:
    """``--shards N``: one supervised task per partition, same front door."""

    SHARDS = ["--shards", "2"]
    SHARDED = FAST_ARGS + SHARDS

    def test_check_identity_prints_the_in_process_checksum(self, capsys):
        assert main(self.SHARDED + ["--check-identity"]) == 0
        out = capsys.readouterr().out
        baseline = run_partitioned(
            "baseline", seed=0, duration=10.0, max_sessions=25
        )
        assert f"checksum {baseline.checksum()}" in out
        assert f"identity ok ({baseline.checksum()})" in out
        assert "shards=2" in out

    def test_trace_out_carries_the_runner_events(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.jsonl"
        assert main(self.SHARDED + ["--trace-out", str(trace_out)]) == 0
        events = [
            json.loads(line)
            for line in trace_out.read_text().splitlines()
        ]
        assert {e["cat"] for e in events} == {"runner"}
        names = [e["name"] for e in events]
        assert names.count("spec_start") == names.count("spec_end") == 3
        capsys.readouterr()

    def test_kill_at_kills_every_partition_once(self, tmp_path, capsys):
        json_out = tmp_path / "killed.json"
        flags = [
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--checkpoint-every", "2",
            "--kill-at", "4",
            "--check-identity",
            "--json-out", str(json_out),
        ]
        assert main(self.SHARDED + flags) == 0
        assert "identity ok" in capsys.readouterr().out
        killed = json.loads(json_out.read_text())
        assert killed["telemetry"]["respawns"] == 3
        assert killed["telemetry"]["epochs"] == 5  # 10 s every 2 s

    def test_more_kills_than_the_respawn_budget_is_a_usage_error(
        self, tmp_path, capsys
    ):
        # Each kill point costs every partition one respawn; three
        # cannot finish on the default budget of two, so refuse before
        # any work instead of failing after it.
        ckpt = tmp_path / "ckpt"
        flags = ["--checkpoint-dir", str(ckpt), "--checkpoint-every", "2"]
        for t in ("3", "5", "7"):
            flags += ["--kill-at", t]
        err = _usage_error(self.SHARDS + flags, capsys)
        assert "--kill-at given 3 times" in err
        assert "at most 2 times" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--hang-timeout", "5"],
            ["--check-identity"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_sharded_flags_require_shards(self, flag, capsys):
        err = _usage_error(flag, capsys)
        assert f"{flag[0]} requires --shards" in err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--metrics-out", "metrics.json"],
            ["--profile-out", "profile.json"],
            ["--resume"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_in_process_flags_refuse_shards(self, flag, capsys):
        err = _usage_error(self.SHARDS + flag, capsys)
        assert f"{flag[0]} cannot be combined with --shards" in err


def test_same_seed_same_checksum_line(capsys):
    main(FAST_ARGS)
    first = capsys.readouterr().out
    main(FAST_ARGS)
    second = capsys.readouterr().out

    def checksum_line(text):
        return next(
            line
            for line in text.splitlines()
            if line.startswith("checksum ")
        )

    assert checksum_line(first) == checksum_line(second)
