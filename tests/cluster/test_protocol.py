"""The cluster's frame codec."""

import io

import pytest

from repro.cluster import protocol
from repro.errors import ClusterProtocolError


def _round_trip(message):
    return protocol.read_frame(io.BytesIO(protocol.encode_frame(message)))


class TestFrames:
    def test_round_trip(self):
        message = protocol.report(3, {"gold": {"offered": 12}})
        assert _round_trip(message) == message

    def test_encoding_is_deterministic(self):
        a = protocol.encode_frame({"type": "x", "b": 1, "a": 2})
        b = protocol.encode_frame({"type": "x", "a": 2, "b": 1})
        assert a == b

    def test_length_prefix_is_big_endian_4_bytes(self):
        frame = protocol.encode_frame({"type": "x"})
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    def test_clean_eof_returns_none(self):
        assert protocol.read_frame(io.BytesIO(b"")) is None

    def test_truncated_header_raises(self):
        with pytest.raises(ClusterProtocolError, match="truncated"):
            protocol.read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_body_raises(self):
        frame = protocol.encode_frame({"type": "x"})
        with pytest.raises(ClusterProtocolError, match="truncated"):
            protocol.read_frame(io.BytesIO(frame[:-2]))

    def test_absurd_length_rejected_before_read(self):
        header = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ClusterProtocolError, match="length"):
            protocol.read_frame(io.BytesIO(header))

    def test_zero_length_rejected(self):
        with pytest.raises(ClusterProtocolError, match="length"):
            protocol.read_frame(io.BytesIO(b"\x00\x00\x00\x00"))

    def test_non_json_body_rejected(self):
        body = b"not json"
        stream = io.BytesIO(len(body).to_bytes(4, "big") + body)
        with pytest.raises(ClusterProtocolError, match="undecodable"):
            protocol.read_frame(stream)

    def test_untyped_message_rejected(self):
        body = b'{"a": 1}'
        stream = io.BytesIO(len(body).to_bytes(4, "big") + body)
        with pytest.raises(ClusterProtocolError, match="typed"):
            protocol.read_frame(stream)

    def test_multiple_frames_in_sequence(self):
        stream = io.BytesIO(
            protocol.encode_frame({"type": "progress", "step": 20})
            + protocol.encode_frame(protocol.report(0, {}))
        )
        assert protocol.read_frame(stream)["type"] == "progress"
        assert protocol.read_frame(stream)["type"] == "report"
        assert protocol.read_frame(stream) is None
