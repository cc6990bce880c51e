"""End-to-end interrupt and kill: real processes, real signals.

These are subprocess tests of the CLI contract: SIGINT/SIGTERM makes a
checkpoint-enabled run flush its snapshot and exit with code 75
(``EX_TEMPFAIL``), ``--kill-at`` SIGKILLs it mid-run, and rerunning the
same command completes with the same bytes as a never-interrupted run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.checkpoint import GRACEFUL_EXIT_CODE

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _workload_cmd(ckpt_dir: Path, json_out: Path, extra=()) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.workload",
        "--scenario",
        "baseline",
        "--duration",
        "30",
        "--checkpoint-dir",
        str(ckpt_dir),
        "--checkpoint-every",
        "1",
        "--json-out",
        str(json_out),
        *extra,
    ]


def _interrupt_after_checkpoint(
    proc: subprocess.Popen, ckpt: Path, sig: int, timeout: float = 30.0
) -> None:
    """Signal ``proc`` once its first checkpoint has landed on disk."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if ckpt.exists():
            proc.send_signal(sig)
            return
        if proc.poll() is not None:
            pytest.fail(
                f"run exited (rc={proc.returncode}) before checkpointing"
            )
        time.sleep(0.05)
    proc.kill()
    pytest.fail("no checkpoint appeared within the timeout")


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_workload_cli_interrupt_resume_identical(tmp_path, sig):
    ckpt_dir = tmp_path / "ckpt"
    out = tmp_path / "resumed.json"

    proc = subprocess.Popen(
        _workload_cmd(ckpt_dir, out),
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    _interrupt_after_checkpoint(
        proc, ckpt_dir / "checkpoint.json", sig
    )
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == GRACEFUL_EXIT_CODE, stderr
    assert "interrupted" in stderr
    assert (ckpt_dir / "checkpoint.json").exists()

    # Strict resume (--resume) finishes the run...
    resumed = subprocess.run(
        _workload_cmd(ckpt_dir, out, extra=("--resume",)),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr

    # ...and matches an uninterrupted run byte for byte.
    golden_out = tmp_path / "golden.json"
    golden = subprocess.run(
        _workload_cmd(tmp_path / "ckpt-golden", golden_out),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert golden.returncode == 0, golden.stderr
    assert out.read_bytes() == golden_out.read_bytes()
    # Completed runs cleared their slots.
    assert not (ckpt_dir / "checkpoint.json").exists()


def test_kill_at_sigkills_each_point_then_resumes_identical(tmp_path):
    # Each rerun of the same command dies at the next planned point
    # (SIGKILL: 137 in a shell) until the last attempt finishes from
    # its snapshot, byte-identical to a run that never checkpointed.
    ckpt_dir = tmp_path / "ckpt"
    killed_out = tmp_path / "killed.json"
    small = ["--duration", "8", "--max-sessions", "40"]
    kill_cmd = [
        sys.executable, "-m", "repro.workload", *small,
        "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "1",
        "--kill-at", "3", "--kill-at", "6", "--json-out", str(killed_out),
    ]
    for expected in (-signal.SIGKILL, -signal.SIGKILL, 0):
        run = subprocess.run(
            kill_cmd, env=_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert run.returncode == expected, run.stderr
    golden_out = tmp_path / "golden.json"
    golden = subprocess.run(
        [
            sys.executable, "-m", "repro.workload", *small,
            "--json-out", str(golden_out),
        ],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert golden.returncode == 0, golden.stderr
    assert killed_out.read_bytes() == golden_out.read_bytes()
    # The completed run disarmed its marker: the same command on this
    # directory would be killed again.
    assert not (ckpt_dir / "kills.json").exists()


def test_runner_cli_interrupt_exits_75(tmp_path):
    # The runner CLI wires the same InterruptFlag through run_specs;
    # SIGTERM during a figure + scale run must exit 75 and report the
    # abandoned specs.
    ckpt_root = tmp_path / "ckpt"
    cmd = [
        sys.executable,
        "-m",
        "repro.runner",
        "fig10",
        "--with-scale",  # multi-second specs: a real interrupt window
        "--output-dir",
        str(tmp_path / "out"),
        "--summary-json",
        str(tmp_path / "summary.json"),
        "--checkpoint-root",
        str(ckpt_root),
    ]
    proc = subprocess.Popen(
        cmd,
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(tmp_path),
    )
    # Signal only once the run demonstrably started (a workload spec's
    # checkpoint slot exists => InterruptFlag installed), else SIGTERM
    # just kills the interpreter mid-import.
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and not (
        ckpt_root.is_dir() and any(ckpt_root.iterdir())
    ):
        assert proc.poll() is None, "runner exited before starting"
        time.sleep(0.05)
    assert ckpt_root.is_dir() and any(ckpt_root.iterdir()), (
        "runner never opened a spec slot"
    )
    proc.send_signal(signal.SIGTERM)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == GRACEFUL_EXIT_CODE, stderr
    assert "abandoned" in stderr


def test_kill_at_requires_checkpoint_dir():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.workload",
            "--kill-at",
            "3.0",
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "--checkpoint-dir" in result.stderr
