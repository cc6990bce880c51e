"""The master/worker wire protocol: length-prefixed canonical JSON.

Every message is one *frame*: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON with sorted keys.  Frames are
deterministic — the same message always encodes to the same bytes — so
protocol transcripts are diffable and the handshake can carry exact
code fingerprints.

Message flow (worker lifetime)::

    worker -> master   hello     {shard, pid, fingerprint, protocol}
    master -> worker   welcome   {}
    master -> worker   assign    {job, scenario, seed, partitions, ...}
    worker -> master   progress  {job, partition, step}  # per snapshot
    worker -> master   report    {job, payloads}         # next assign ok
    master -> worker   shutdown  {}
    either direction   error     {message}

The worker runs its partitions one after another, each to the end;
nothing on the wire paces it.  ``progress`` is only a heartbeat: the
master treats any frame as proof of life and respawns a shard that
dies or goes silent.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO, Mapping, Optional

from repro.errors import ClusterProtocolError

#: Bumped on any wire-incompatible change; checked in the handshake.
PROTOCOL_VERSION = 2

#: Refuse absurd frame lengths (corrupt header / desynced stream)
#: before attempting a giant read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """One message as deterministic wire bytes (header + canonical JSON)."""
    body = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _HEADER.pack(len(body)) + body


def write_frame(stream: BinaryIO, message: Mapping[str, Any]) -> None:
    """Encode and flush one frame (flushing keeps the peer unblocked)."""
    stream.write(encode_frame(message))
    stream.flush()


def _read_exact(stream: BinaryIO, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ClusterProtocolError(
                f"stream truncated mid-frame ({got}/{n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> Optional[dict[str, Any]]:
    """Read one frame; None on clean EOF (peer closed between frames)."""
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"invalid frame length {length} (desynced or corrupt stream)"
        )
    body = _read_exact(stream, length)
    if body is None:
        raise ClusterProtocolError("stream truncated after frame header")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ClusterProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ClusterProtocolError(
            f"frame is not a typed message: {message!r}"
        )
    return message


def expect(
    message: Optional[Mapping[str, Any]], *types: str
) -> Mapping[str, Any]:
    """Assert a message arrived and is one of ``types``.

    A peer-sent ``error`` message is surfaced verbatim (unless the
    caller explicitly expects one), so failures carry the *other*
    side's diagnosis rather than a generic type mismatch.
    """
    if message is None:
        raise ClusterProtocolError(
            f"peer closed the stream; expected {' or '.join(types)}"
        )
    kind = message.get("type")
    if kind == "error" and "error" not in types:
        raise ClusterProtocolError(
            f"peer reported error: {message.get('message')}"
        )
    if kind not in types:
        raise ClusterProtocolError(
            f"expected {' or '.join(types)}, got {kind!r}"
        )
    return message


# ----------------------------------------------------------------------
# message constructors — one per type, so spellings live in one place
# ----------------------------------------------------------------------
def hello(shard: int, pid: int, fingerprint: str) -> dict[str, Any]:
    return {
        "type": "hello",
        "shard": shard,
        "pid": pid,
        "fingerprint": fingerprint,
        "protocol": PROTOCOL_VERSION,
    }


def welcome() -> dict[str, Any]:
    return {"type": "welcome", "protocol": PROTOCOL_VERSION}


def assign(
    job: int,
    scenario: str,
    seed: int,
    partitions: list[str],
    rate_scale: float = 1.0,
    duration: Optional[float] = None,
    max_sessions: Optional[int] = None,
    epoch_s: float = 2.0,
    checkpoint_root: Optional[str] = None,
    resume: bool = False,
    kill_at_epoch: Optional[int] = None,
    topology: Optional[str] = None,
) -> dict[str, Any]:
    return {
        "type": "assign",
        "job": job,
        "scenario": scenario,
        "seed": seed,
        "partitions": sorted(partitions),
        "rate_scale": rate_scale,
        "duration": duration,
        "max_sessions": max_sessions,
        "epoch_s": epoch_s,
        "checkpoint_root": checkpoint_root,
        "resume": resume,
        "kill_at_epoch": kill_at_epoch,
        # Generated-topology reference (repro.topo preset string);
        # None = the Figure-8 testbed.
        "topology": topology,
    }


def progress(job: int, partition: str, step: int) -> dict[str, Any]:
    return {
        "type": "progress", "job": job, "partition": partition, "step": step
    }


def report(
    job: int, payloads: Mapping[str, Mapping[str, Any]]
) -> dict[str, Any]:
    return {"type": "report", "job": job, "payloads": dict(payloads)}


def shutdown() -> dict[str, Any]:
    return {"type": "shutdown"}


def error(message: str) -> dict[str, Any]:
    return {"type": "error", "message": message}
