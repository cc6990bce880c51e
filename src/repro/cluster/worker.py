"""One shard's worker process: ``python -m repro.cluster.worker``.

A worker owns a set of tenant partitions and simulates each one's
slice — its own testbed realization, IQPathsService, and ChurnDriver,
all pure functions of ``(seed, scenario, partition)``.  It speaks the
framed protocol on stdin/stdout and advances simulation in
barrier-granted virtual-time epochs, checkpointing every partition at
each epoch boundary when a checkpoint root is assigned.

Stdout hygiene: the protocol stream is the *duplicated* stdout file
descriptor; ``sys.stdout`` itself is rebound to stderr immediately, so
any stray ``print`` in library code lands in the shard's log instead
of corrupting a frame.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Any, BinaryIO, Mapping, Optional

from repro.checkpoint.snapshot import CheckpointStore
from repro.checkpoint.workload import (
    load_run_snapshot,
    restore_run_snapshot,
    save_run_snapshot,
)
from repro.cluster import protocol
from repro.cluster.epochs import epoch_boundaries, epochs_completed
from repro.errors import ClusterProtocolError
from repro.runner.fingerprint import code_fingerprint
from repro.workload.driver import ChurnDriver
from repro.workload.scenarios import (
    make_scale_run,
    make_scenario,
    run_identity,
)


def _run_job(
    assign: Mapping[str, Any],
    proto_in: BinaryIO,
    proto_out: BinaryIO,
    fingerprint: str,
) -> None:
    """Execute one assigned run: epochs, checkpoints, report upload."""
    job = int(assign["job"])
    scenario = make_scenario(
        assign["scenario"],
        rate_scale=float(assign["rate_scale"]),
        duration=assign["duration"],
        topology=assign["topology"],
    )
    duration = scenario.duration
    epoch_s = float(assign["epoch_s"])
    partitions = list(assign["partitions"])
    seed = int(assign["seed"])
    max_sessions = assign["max_sessions"]
    checkpoint_root = assign["checkpoint_root"]
    kill_at_epoch = assign["kill_at_epoch"]

    drivers: dict[str, ChurnDriver] = {}
    stores: dict[str, CheckpointStore] = {}
    metas: dict[str, dict[str, Any]] = {}
    for partition in partitions:
        drivers[partition] = make_scale_run(
            scenario,
            seed=seed,
            max_sessions=max_sessions,
            partition=partition,
        )
        if checkpoint_root is not None:
            stores[partition] = CheckpointStore.for_partition(
                checkpoint_root, partition
            )
            metas[partition] = run_identity(
                scenario, seed, max_sessions, partition
            )

    boundaries = epoch_boundaries(duration, epoch_s)
    n_epochs = len(boundaries)

    completed = 0
    if assign["resume"] and stores:
        # Lenient by design (the respawn path must make progress even
        # past a damaged slot): an unusable or mismatched snapshot
        # leaves that partition at step 0.
        for p in partitions:
            payload = load_run_snapshot(stores[p], fingerprint, metas[p])
            if payload is not None:
                restore_run_snapshot(drivers[p], payload)
        # The join point is the *least* advanced partition: a kill can
        # land between two partitions' snapshot writes, and replayed
        # epochs are no-ops for the partitions already past them.
        completed = min(
            epochs_completed(boundaries, drivers[p].completed_steps)
            for p in partitions
        )
    for partition in partitions:
        drivers[partition].begin(duration)
    protocol.write_frame(proto_out, protocol.resumed(job, completed))

    for epoch in range(completed, n_epochs):
        message = protocol.expect(
            protocol.read_frame(proto_in), "epoch_go"
        )
        if message["job"] != job or message["epoch"] != epoch:
            raise ClusterProtocolError(
                f"expected epoch_go(job={job}, epoch={epoch}), "
                f"got {message!r}"
            )
        target = boundaries[epoch]
        for partition in partitions:
            driver = drivers[partition]
            driver.advance_to(max(target, driver.completed_steps))
        for partition in partitions:
            if partition in stores:
                save_run_snapshot(
                    drivers[partition],
                    stores[partition],
                    fingerprint,
                    metas[partition],
                    target,
                    target * drivers[partition].service.dt,
                )
        if kill_at_epoch is not None and epoch == int(kill_at_epoch):
            # Kill-injection for the supervision tests: die *after* the
            # epoch's snapshots land but *before* the master hears
            # about it — the worst-ordered crash the barrier permits.
            os.kill(os.getpid(), signal.SIGKILL)
        protocol.write_frame(
            proto_out, protocol.epoch_done(job, epoch, target)
        )

    message = protocol.expect(protocol.read_frame(proto_in), "epoch_go")
    if message["job"] != job or message["epoch"] != n_epochs:
        raise ClusterProtocolError(
            f"expected finalize epoch_go(job={job}, epoch={n_epochs}), "
            f"got {message!r}"
        )
    payloads = {
        partition: drivers[partition].finalize(duration).to_dict()
        for partition in partitions
    }
    protocol.write_frame(proto_out, protocol.report(job, payloads))
    protocol.expect(protocol.read_frame(proto_in), "report_ack")
    # Acked means durably merged: finished work must not be "resumed".
    for store in stores.values():
        store.clear()


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
            protocol.expect(message, "assign"),
            proto_in,
            proto_out,
            fingerprint,
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
