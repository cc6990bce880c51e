"""Command-line front door for the workload engine.

Runs one named scenario, in this process or sharded into one worker
process per tenant partition, or searches its capacity envelope in
this process, and prints the deterministic report plus wall-clock
throughput figures::

    python -m repro.workload --scenario baseline --seed 0
    python -m repro.workload --scenario flash-crowd --rate-scale 1.5 \\
        --trace-out trace.jsonl --metrics-out metrics.json
    python -m repro.workload --scenario baseline --envelope \\
        --ceiling 0.05 --iterations 6
    python -m repro.workload --scenario baseline --shards 2 \\
        --check-identity

``--shards N`` runs the scenario as one supervised task per tenant
partition (:class:`repro.cluster.ClusterMaster`); ``--check-identity``
reruns it in-process (:func:`repro.cluster.run_partitioned`) and fails
unless the merged payloads are byte-identical.  Wall-clock rates
(sessions/sec, steps/sec) are printed but deliberately kept *out* of
the report payload and its checksum, so the checksum stays a pure
function of the run's identity.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Optional

from repro.obs.context import Observability
from repro.workload.envelope import estimate_envelope
from repro.workload.scenarios import (
    SCENARIOS,
    ScaleScenario,
    make_scenario,
    run_scale_scenario,
)


#: Snapshot cadence when --checkpoint-dir is given without an explicit
#: --checkpoint-every.
DEFAULT_CHECKPOINT_EVERY_S = 5.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description=(
            "Run a multi-tenant workload scenario against the IQ-Paths "
            "middleware — in this process or sharded across workers — "
            "or estimate its capacity envelope."
        ),
    )
    parser.add_argument(
        "--scenario", default="baseline", choices=sorted(SCENARIOS),
        help="named scenario to run (default: baseline)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="top-level seed; every stochastic ingredient derives from it",
    )
    parser.add_argument(
        "--topology", default=None,
        help=(
            "run on a generated topology: a preset name such as "
            "fat_tree_k4 / leaf_spine_4x8 / repetita_wan_s0, optionally "
            "with a ':<traffic>' suffix (nlanr, dc-baseline, dc-incast, "
            "dc-hotrack); default: the Figure-8 Emulab testbed"
        ),
    )
    parser.add_argument(
        "--rate-scale", type=float, default=1.0,
        help="multiply the scenario's arrival rates (default: 1.0)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="override the scenario's run duration (seconds)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=None,
        help="truncate the session plan after this many arrivals",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help=(
            "run sharded: one worker process per tenant partition, at "
            "most N at once; the merged report is byte-identical at "
            "every shard count (default: one in-process run)"
        ),
    )
    parser.add_argument(
        "--hang-timeout", type=float, default=60.0,
        help=(
            "wall seconds without a partition's heartbeat before its "
            "process is killed and retried (default: 60; requires "
            "--shards)"
        ),
    )
    parser.add_argument(
        "--check-identity", action="store_true",
        help=(
            "also run the in-process partitioned baseline and fail "
            "unless the merged payloads are byte-identical (requires "
            "--shards)"
        ),
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="write the canonical report payload (JSON) here",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help=(
            "export the run's trace (JSONL) here; with --shards, the "
            "runner's events (spec_start, spec_retry, spec_end)"
        ),
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="export the run's metrics registry here",
    )
    parser.add_argument(
        "--metrics-format", choices=("auto", "json", "prometheus"),
        default="auto",
        help=(
            "metrics export format; auto picks prometheus exposition "
            "text for a .prom extension, JSON otherwise (default: auto; "
            "requires --metrics-out)"
        ),
    )
    parser.add_argument(
        "--profile-out", type=Path, default=None,
        help=(
            "enable the span profiler: print the self-time table and "
            "span-structure digest, write the profile report (JSON) here"
        ),
    )
    parser.add_argument(
        "--envelope", action="store_true",
        help=(
            "binary-search the capacity envelope instead of one run "
            "(in this process; --json-out is its only export)"
        ),
    )
    parser.add_argument(
        "--ceiling", type=float, default=0.05,
        help=(
            "envelope violation-rate ceiling (default: 0.05; requires "
            "--envelope)"
        ),
    )
    parser.add_argument(
        "--iterations", type=int, default=6,
        help="envelope bisection iterations (default: 6; requires --envelope)",
    )
    parser.add_argument(
        "--probe-duration", type=float, default=30.0,
        help=(
            "duration of each envelope probe run (default: 30s; requires "
            "--envelope)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help=(
            "enable crash-safe execution: snapshot run state here, "
            "auto-resume from the last verified snapshot, and exit 75 "
            "after flushing a final snapshot on SIGINT/SIGTERM; with "
            "--shards, the root of the per-partition snapshot slots "
            "(default there: a private temp dir)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=None,
        help=(
            "virtual seconds between snapshots (default: "
            f"{DEFAULT_CHECKPOINT_EVERY_S}; requires --checkpoint-dir)"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "strict resume: fail loudly if the checkpoint is corrupt, "
            "written by different code, or taken for another run "
            "(default is lenient — unusable checkpoints restart "
            "fresh; refused with --shards, whose partitions always "
            "resume leniently)"
        ),
    )
    parser.add_argument(
        "--kill-at", type=float, action="append", default=None,
        metavar="T",
        help=(
            "kill-injection: SIGKILL this process at virtual time T "
            "(repeatable; once per point across restarts; with "
            "--shards, every partition's process on its own clock, "
            "no more points than its respawn budget; requires "
            "--checkpoint-dir)"
        ),
    )
    return parser


#: Flags that only mean something on a sharded run / an in-process one.
_SHARDED_ONLY = ("hang_timeout", "check_identity")
_IN_PROCESS_ONLY = ("metrics_out", "profile_out", "resume")
#: Flags that only steer an envelope search / that it has no use for.
_ENVELOPE_ONLY = ("ceiling", "iterations", "probe_duration")
_NOT_ENVELOPE = (
    "rate_scale", "duration", "shards", "trace_out", "metrics_out",
    "profile_out", "checkpoint_dir", "checkpoint_every", "resume", "kill_at",
)


def validate_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject flag combinations that would otherwise silently no-op.

    Checkpoint-related flags only mean something relative to a
    checkpoint directory; accepting them without one used to leave the
    user believing resume (or kill-injection) was armed when nothing
    was.  Fail fast, through ``parser.error`` so the message carries
    the usual usage text and exit code 2.  The same goes for flags of
    the other execution mode: a sharded run ships back no metrics
    registry or span profile and always resumes leniently, and an
    in-process run has no shards.  A cadence or timeout must be
    positive.  Each ``--kill-at`` point costs a sharded partition one
    respawn, so more points than the respawn budget cannot finish.  An
    envelope search picks its own rate scales and probe duration and
    runs in this process, exporting nothing but ``--json-out``; its
    search flags mean nothing to one run.
    """

    def refuse(dests: tuple[str, ...], why: str) -> None:
        for dest in dests:
            if getattr(args, dest) != parser.get_default(dest):
                parser.error(f"--{dest.replace('_', '-')} {why}")

    if args.envelope:
        refuse(_NOT_ENVELOPE, "cannot be combined with --envelope")
    else:
        refuse(_ENVELOPE_ONLY, "requires --envelope")
    if args.shards is None:
        refuse(_SHARDED_ONLY, "requires --shards")
    else:
        refuse(_IN_PROCESS_ONLY, "cannot be combined with --shards")
    if args.metrics_out is None:
        refuse(("metrics_format",), "requires --metrics-out")
    for dest in ("hang_timeout", "checkpoint_every"):
        value = getattr(args, dest)
        if value is not None and value <= 0:
            parser.error(
                f"--{dest.replace('_', '-')} must be positive, got {value}"
            )
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    if args.kill_at and args.checkpoint_dir is None:
        parser.error("--kill-at requires --checkpoint-dir")
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        parser.error("--checkpoint-every requires --checkpoint-dir")
    if args.kill_at and args.checkpoint_every is None:
        parser.error(
            "--kill-at requires an explicit --checkpoint-every "
            "(a kill schedule is only meaningful against a known "
            "snapshot cadence)"
        )
    if args.kill_at and args.shards is not None:
        from repro.cluster import ClusterMaster

        budget = (
            inspect.signature(ClusterMaster)
            .parameters["max_respawns"]
            .default
        )
        if len(args.kill_at) > budget:
            parser.error(
                f"--kill-at given {len(args.kill_at)} times, but with "
                f"--shards each partition is respawned at most {budget} "
                "times (its respawn budget)"
            )


def _run_envelope(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    envelope = estimate_envelope(
        args.scenario,
        seed=args.seed,
        ceiling=args.ceiling,
        iterations=args.iterations,
        probe_duration=args.probe_duration,
        max_sessions=args.max_sessions,
        topology=args.topology,
    )
    wall = time.perf_counter() - t0
    print(envelope.render())
    print(f"checksum {envelope.checksum()}")
    print(f"wall {wall:.2f}s over {len(envelope.probes)} probes")
    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(envelope.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json_out}")
    return 0


def _scenario(args: argparse.Namespace) -> ScaleScenario:
    return make_scenario(
        args.scenario,
        rate_scale=args.rate_scale,
        duration=args.duration,
        topology=args.topology,
    )


def _run_checkpointed(args: argparse.Namespace, obs):
    """Crash-safe scenario run: snapshots, resume, graceful interrupt."""
    from repro.checkpoint import (
        CheckpointConfig,
        CheckpointStore,
        GRACEFUL_EXIT_CODE,
        InterruptFlag,
        KillSwitch,
        RunInterrupted,
        run_scale_scenario_checkpointed,
    )

    store = CheckpointStore(args.checkpoint_dir)
    switch = on_step = None
    if args.kill_at:
        switch = KillSwitch(args.checkpoint_dir, args.kill_at)
        on_step = lambda k, t: switch.maybe_kill(t)  # noqa: E731
    flag = InterruptFlag().install()
    try:
        report = run_scale_scenario_checkpointed(
            _scenario(args),
            store,
            seed=args.seed,
            max_sessions=args.max_sessions,
            obs=obs,
            config=CheckpointConfig(
                every_s=args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY_S
            ),
            strict_resume=args.resume,
            interrupt=flag,
            on_step=on_step,
        )
    except RunInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print(
            "rerun the same command to resume from the checkpoint",
            file=sys.stderr,
        )
        return None, GRACEFUL_EXIT_CODE
    finally:
        flag.restore()
    if switch is not None:
        switch.reset()
    return report, 0


def _run_sharded(args: argparse.Namespace, obs):
    """The scenario as one supervised task per partition, merged."""
    from repro.cluster import ClusterMaster

    with ClusterMaster(
        scenario=args.scenario,
        seed=args.seed,
        shards=args.shards,
        epoch_s=args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY_S,
        max_sessions=args.max_sessions,
        checkpoint_root=args.checkpoint_dir,
        hang_timeout=args.hang_timeout,
        topology=args.topology,
        obs=obs,
    ) as master:
        return master.run(
            rate_scale=args.rate_scale,
            duration=args.duration,
            kill_at=args.kill_at or (),
        )


def _check_identity(args: argparse.Namespace, report) -> int:
    """The sharded merge against the in-process partitioned baseline."""
    from repro.cluster import run_partitioned

    baseline = run_partitioned(
        args.scenario,
        seed=args.seed,
        rate_scale=args.rate_scale,
        duration=args.duration,
        max_sessions=args.max_sessions,
        topology=args.topology,
    )
    if baseline.merged != report.merged:
        print(
            "IDENTITY FAILED: cluster merge differs from the "
            "in-process baseline "
            f"({report.checksum()} != {baseline.checksum()})",
            file=sys.stderr,
        )
        return 1
    print(f"identity ok ({baseline.checksum()})")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_args(parser, args)
    if args.envelope:
        return _run_envelope(args)
    want_obs = (
        args.trace_out is not None
        or args.metrics_out is not None
        or args.profile_out is not None
    )
    obs = (
        Observability(profile=args.profile_out is not None)
        if want_obs
        else None
    )
    t0 = time.perf_counter()
    if args.shards is not None:
        report = _run_sharded(args, obs)
    elif args.checkpoint_dir is not None:
        report, code = _run_checkpointed(args, obs)
        if report is None:
            return code
    else:
        report = run_scale_scenario(
            _scenario(args),
            seed=args.seed,
            max_sessions=args.max_sessions,
            obs=obs,
        )
    wall = time.perf_counter() - t0
    print(report.render())
    print(f"checksum {report.checksum()}")
    if args.shards is None:
        steps = int(round(report.duration / report.dt))
        print(
            f"wall {wall:.2f}s  "
            f"sessions/sec {report.offered / wall:.1f}  "
            f"steps/sec {steps / wall:.1f}"
        )
    else:
        print(f"wall {wall:.2f}s  sessions/sec {report.offered / wall:.1f}")
    if args.check_identity and _check_identity(args, report):
        return 1
    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json_out}")
    if obs is not None and args.trace_out is not None:
        count = obs.trace.export_jsonl(args.trace_out)
        print(f"wrote {args.trace_out} ({count} events)")
    if obs is not None and args.metrics_out is not None:
        from repro.obs.prom import export_metrics

        fmt = export_metrics(
            obs.metrics, args.metrics_out, fmt=args.metrics_format
        )
        print(f"wrote {args.metrics_out} ({fmt})")
    if obs is not None and args.profile_out is not None:
        profile = obs.prof.report()
        print()
        print(profile.render())
        profile.export_json(args.profile_out)
        print(f"wrote {args.profile_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
