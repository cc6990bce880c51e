"""A length-prefixed canonical-JSON frame codec.

Every message is one *frame*: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON with sorted keys.  Frames are
deterministic — the same message always encodes to the same bytes.

No process speaks this codec any more: the runner's executor carries a
sharded run's payloads.  It stays because the measurement spine times
a ``report`` frame's encode and decode (``cluster.frame_*_us``).
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO, Mapping, Optional

from repro.errors import ClusterProtocolError

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


def report(
    job: int, payloads: Mapping[str, Mapping[str, Any]]
) -> dict[str, Any]:
    """The ``report`` message: one job's per-partition payloads."""
    return {"type": "report", "job": job, "payloads": dict(payloads)}
