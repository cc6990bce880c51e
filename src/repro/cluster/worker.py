"""One shard's worker process: ``python -m repro.cluster.worker``.

A worker owns a set of tenant partitions and runs each one's slice in
turn through :func:`~repro.checkpoint.workload.run_scale_scenario_checkpointed`
— its own testbed realization, IQPathsService and ChurnDriver, all pure
functions of ``(seed, scenario, partition)`` — snapshotting it every
``epoch_s`` virtual seconds into the partition's slot.  It speaks the
framed protocol on stdin/stdout: one ``progress`` frame per snapshot
(the heartbeat), one ``report`` frame per job.

Stdout hygiene: the protocol stream is the *duplicated* stdout file
descriptor; ``sys.stdout`` itself is rebound to stderr immediately, so
any stray ``print`` in library code lands in the shard's log instead
of corrupting a frame.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, BinaryIO, Mapping, Optional

from repro.checkpoint.policy import CheckpointConfig
from repro.checkpoint.snapshot import CheckpointStore
from repro.checkpoint.workload import run_scale_scenario_checkpointed
from repro.cluster import protocol
from repro.errors import ClusterProtocolError
from repro.runner.fingerprint import code_fingerprint
from repro.workload.scenarios import STEP_DT, make_scenario


def _run_job(
    assign: Mapping[str, Any],
    proto_out: BinaryIO,
    fingerprint: str,
    shard: int,
) -> None:
    """Run each assigned partition in order, then upload the report.

    ``kill_at_epoch`` (supervision tests) SIGKILLs this process once
    the shard's clock — its partitions' virtual time laid end to end,
    in order — reaches ``(kill_at_epoch + 1) * epoch_s``.  The kill
    marker lives under the checkpoint root, so a respawn handed the
    same assignment does not die again.
    """
    job = int(assign["job"])
    scenario = make_scenario(
        assign["scenario"],
        rate_scale=float(assign["rate_scale"]),
        duration=assign["duration"],
        topology=assign["topology"],
    )
    root = Path(assign["checkpoint_root"])
    config = CheckpointConfig(every_s=float(assign["epoch_s"]))
    every_steps = config.every_steps(STEP_DT)
    switch = None
    if assign["kill_at_epoch"] is not None:
        from repro.harness.crash import KillSwitch

        switch = KillSwitch(
            root / f"shard-{shard}",
            [(int(assign["kill_at_epoch"]) + 1) * config.every_s],
        )

    payloads = {}
    for index, partition in enumerate(assign["partitions"]):
        offset = index * scenario.duration

        def on_step(k: int, t: float) -> None:
            if (k + 1) % every_steps == 0:
                protocol.write_frame(
                    proto_out, protocol.progress(job, partition, k + 1)
                )
            if switch is not None:
                switch.maybe_kill(offset + t)

        payloads[partition] = run_scale_scenario_checkpointed(
            scenario,
            CheckpointStore.for_partition(root, partition),
            seed=int(assign["seed"]),
            max_sessions=assign["max_sessions"],
            config=config,
            fingerprint=fingerprint,
            resume=assign["resume"],
            on_step=on_step,
            partition=partition,
        ).to_dict()
    if switch is not None:
        # The job is done: the next job's kill is armed afresh.
        switch.marker_path.unlink(missing_ok=True)
    protocol.write_frame(proto_out, protocol.report(job, payloads))


def serve(
    proto_in: BinaryIO, proto_out: BinaryIO, shard: int
) -> int:
    """Handshake, then process assignments until shutdown or EOF."""
    fingerprint = code_fingerprint()
    protocol.write_frame(
        proto_out, protocol.hello(shard, os.getpid(), fingerprint)
    )
    welcome = protocol.expect(protocol.read_frame(proto_in), "welcome")
    if welcome["protocol"] != protocol.PROTOCOL_VERSION:
        raise ClusterProtocolError(
            f"master speaks protocol {welcome['protocol']}, "
            f"worker speaks {protocol.PROTOCOL_VERSION}"
        )
    while True:
        message = protocol.read_frame(proto_in)
        if message is None or message.get("type") == "shutdown":
            return 0
        _run_job(
            protocol.expect(message, "assign"), proto_out, fingerprint, shard
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="One shard of a repro.cluster run (spawned by the "
        "master; speaks the framed protocol on stdin/stdout).",
    )
    parser.add_argument("--shard", type=int, required=True)
    args = parser.parse_args(argv)
    proto_in = sys.stdin.buffer
    proto_out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout = sys.stderr
    try:
        return serve(proto_in, proto_out, args.shard)
    except BrokenPipeError:
        # Master died; nothing to report to.
        return 1
    except Exception as exc:  # noqa: BLE001 — last-resort diagnosis frame
        print(f"worker shard {args.shard} failed: {exc}", file=sys.stderr)
        try:
            protocol.write_frame(proto_out, protocol.error(str(exc)))
        except OSError:
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
