"""Property suite for the binary wire framing.

Three families of properties:

* **Round trip**: any frame-expressible message survives
  ``encode_frame`` -> ``read_frame`` bit-exactly, blobs included,
  deflated or not, and a socket round trip counts its frames and bytes.
* **Torn frames**: any strict prefix of a frame followed by EOF raises
  ``ConnectionError`` (never hangs, never returns garbage), and the
  error says how many bytes arrived.
* **Malformed frames**: a complete frame whose meta document does not
  describe its body exactly raises ``ConnectionError``, and a server
  answers it with an error frame instead of dropping the connection
  unannounced.

Plus the frame cap: an oversized frame must be refused with an error
naming the offending key and the frame size, on both the client
(encode) and server (response) paths.
"""

import asyncio
import json
import os
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ServiceMetrics
from repro.service import transport as transport_mod
from repro.service.transport import (
    FLAG_DEFLATE,
    FRAME_MAGIC,
    Blob,
    FrameTooLarge,
    SocketTransport,
    decode_binary_body,
    encode_frame,
    read_frame,
    serve_socket,
)

pytestmark = pytest.mark.service

_HEADER = struct.Struct("!4sBIQ")


def _decode(frame: bytes):
    """Synchronously read one frame from raw bytes (EOF after)."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(scenario())


def _frame(meta, tail: bytes = b"", flags: int = 0) -> bytes:
    """A hand-built frame: ``meta`` (JSON-encoded unless bytes) + ``tail``."""
    meta_bytes = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
    body = meta_bytes + tail
    return _HEADER.pack(FRAME_MAGIC, flags, len(meta_bytes), len(body)) + body


# ----------------------------------------------------------------------
# Hypothesis strategies: frame-expressible messages
# ----------------------------------------------------------------------
_keys = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12
).filter(lambda k: k != "__blob__")

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=24),
    st.builds(
        Blob,
        st.binary(max_size=256),
        st.sampled_from(["bytes", "npy", "json", "result-v1"]),
    ),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=12,
)

_messages = st.dictionaries(_keys, _values, max_size=6)


class TestRoundTrip:
    @given(obj=_messages)
    @settings(max_examples=150, deadline=None)
    def test_binary_frames_round_trip_exactly(self, obj):
        frame = encode_frame(obj)
        assert frame[:4] == FRAME_MAGIC
        decoded, nbytes = _decode(frame)
        assert nbytes == len(frame)
        assert decoded == obj

    def test_deflated_body_round_trips(self):
        # highly compressible payload well past the deflate threshold
        blob = Blob(b"\x07" * 100_000, "npy")
        obj = {"op": "fetch", "key": "k" * 64, "payload": blob}
        frame = encode_frame(obj)
        _, flags, _, _ = _HEADER.unpack(frame[: _HEADER.size])[0:4]
        assert flags & FLAG_DEFLATE
        assert len(frame) < len(blob.data) // 10
        decoded, _ = _decode(frame)
        assert decoded == obj

    def test_incompressible_body_skips_deflate(self):
        obj = {"payload": Blob(os.urandom(4096), "bytes")}
        frame = encode_frame(obj)
        flags = frame[4]
        assert not flags & FLAG_DEFLATE
        decoded, _ = _decode(frame)
        assert decoded == obj

    @given(objs=st.lists(_messages, min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_concatenated_frames_stay_delimited(self, objs):
        # frames back to back on one stream: each frame must consume
        # exactly its own bytes
        async def scenario():
            reader = asyncio.StreamReader()
            for obj in objs:
                reader.feed_data(encode_frame(obj))
            reader.feed_eof()
            out = []
            while True:
                read = await read_frame(reader)
                if read is None:
                    return out
                out.append(read[0])

        assert asyncio.run(scenario()) == objs


class TestTornFrames:
    @given(obj=_messages, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_binary_prefix_is_rejected(self, obj, data):
        frame = encode_frame(obj)
        cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
        with pytest.raises(ConnectionError, match="torn binary frame"):
            _decode(frame[:cut])

    def test_empty_stream_is_clean_eof(self):
        assert _decode(b"") is None

    def test_torn_frame_error_reports_byte_counts(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(ConnectionError, match=r"\d+ of \d+ bytes"):
            _decode(frame[: len(frame) - 1])

    def test_oversized_declared_body_is_refused_unread(self):
        # a hostile header claiming a huge body must be rejected from
        # the 17 header bytes alone, before buffering anything
        header = _HEADER.pack(FRAME_MAGIC, 0, 10, transport_mod.MAX_FRAME_BYTES + 1)
        with pytest.raises(ConnectionError, match="exceeds"):
            _decode(header)

    def test_segment_table_overrun_is_refused(self):
        frame = _frame({"c": {"x": {"__blob__": 0}}, "b": [["bytes", 999]]}, b"short")
        with pytest.raises(ConnectionError, match="overruns"):
            _decode(frame)

    def test_meta_length_past_body_is_refused(self):
        with pytest.raises(ConnectionError, match="meta length"):
            decode_binary_body(0, 100, b"tiny")

    def test_truncated_deflate_stream_is_refused(self):
        packed = zlib.compress(b"x" * 10_000)
        with pytest.raises(ConnectionError, match="truncated|cap"):
            decode_binary_body(FLAG_DEFLATE, 4, packed[: len(packed) // 2])


def _deflated(meta: dict, trailer: bytes) -> bytes:
    """A frame whose deflated body is followed by ``trailer``."""
    meta_bytes = json.dumps(meta).encode()
    body = zlib.compress(meta_bytes) + trailer
    return _HEADER.pack(FRAME_MAGIC, FLAG_DEFLATE, len(meta_bytes), len(body)) + body


#: complete frames whose body its meta does not describe exactly, and
#: the error each must raise
MALFORMED = {
    "negative-segment-length": (
        _frame({"c": {"x": {"__blob__": 0}}, "b": [["bytes", -3]]}, b"abc"),
        r"not a \[codec, length\] pair",
    ),
    "negative-blob-index": (
        _frame({"c": {"x": {"__blob__": -1}}, "b": [["bytes", 3]]}, b"abc"),
        "blob reference -1",
    ),
    "blob-index-out-of-range": (
        _frame({"c": {"x": {"__blob__": 5}}, "b": []}),
        "blob reference 5",
    ),
    "non-integer-blob-index": (
        _frame({"c": {"x": {"__blob__": "0"}}, "b": [["bytes", 3]]}, b"abc"),
        "blob reference '0'",
    ),
    "bytes-after-last-segment": (
        _frame({"c": {"x": 1}, "b": []}, b"junk"),
        r"4 byte\(s\) follow the last segment",
    ),
    "segment-not-a-pair": (
        _frame({"c": {"x": {"__blob__": 0}}, "b": [["bytes"]]}, b"abc"),
        r"not a \[codec, length\] pair",
    ),
    "non-object-meta": (_frame([1, 2]), "meta is not"),
    "meta-without-segment-table": (_frame({"c": {"x": 1}}), "meta is not"),
    "meta-not-json": (_frame(b"{not json"), "malformed binary frame"),
    "control-not-an-object": (
        _frame({"c": [1], "b": []}),
        "expected an object frame",
    ),
    "unknown-flags": (_frame({"c": {}, "b": []}, flags=0x02), "unknown flags"),
    "corrupt-deflate-stream": (
        _frame(b"{}", b"not a deflate stream", flags=FLAG_DEFLATE),
        "corrupt",
    ),
    "bytes-after-deflate-stream": (
        _deflated({"c": {}, "b": []}, b"junk"),
        "trailing bytes",
    ),
}


class TestMalformedFrames:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_body_is_refused(self, case):
        frame, message = MALFORMED[case]
        with pytest.raises(ConnectionError, match=message):
            _decode(frame)

    def test_server_answers_malformed_frame_with_an_error_frame(self):
        # the server must reply in-band (then hang up: the stream's frame
        # boundaries are lost), not die with an unhandled exception
        async def handler(request):  # pragma: no cover - never reached
            return {"ok": True}

        async def scenario():
            server, port = await serve_socket(handler)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(MALFORMED["blob-index-out-of-range"][0])
                await writer.drain()
                return await read_frame(reader), await read_frame(reader)
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        reply, after = asyncio.run(scenario())
        assert reply is not None, "server hung up without an error frame"
        assert reply[0]["ok"] is False
        assert "blob reference 5" in reply[0]["message"]
        assert after is None


class TestNegotiation:
    """Nothing is negotiated any more: a default client speaks binary
    frames from its first byte, with no hello round trip before it."""

    REQUEST = {"op": "echo", "value": 17, "blob": Blob(b"\x00\xff", "bytes")}

    def _call_through(self, request):
        async def handler(request):
            return {"ok": True, "echo": request["value"], "blob": request["blob"]}

        async def scenario():
            server, port = await serve_socket(handler)
            metrics = ServiceMetrics()
            t = SocketTransport("127.0.0.1", port, metrics=metrics)
            try:
                return await t.call(dict(request)), metrics
            finally:
                await t.close()
                server.close()
                await server.wait_closed()

        return asyncio.run(scenario())

    def test_auto_client_binary_server_goes_binary(self):
        response, metrics = self._call_through(self.REQUEST)
        assert response == {"ok": True, "echo": 17, "blob": Blob(b"\x00\xff", "bytes")}
        assert metrics.frames_binary == 1

    def test_transport_metrics_count_frames_and_bytes(self):
        response, metrics = self._call_through(self.REQUEST)
        # one binary request, no hello: the byte counts are exactly the
        # request frame and the response frame
        assert metrics.frames_binary == 1
        assert metrics.bytes_sent == len(encode_frame(self.REQUEST))
        assert metrics.bytes_received == len(encode_frame(response))


class TestFrameCap:
    """Satellite: the cap error must name the offending key and size."""

    def test_binary_cap_names_key_and_size(self, monkeypatch):
        monkeypatch.setattr(transport_mod, "MAX_FRAME_BYTES", 1024)
        # incompressible payload: the cap applies to on-wire bytes, so
        # deflate must not be able to rescue the frame
        obj = {"op": "fetch", "key": "deadbeef", "payload": Blob(os.urandom(4096))}
        with pytest.raises(FrameTooLarge) as err:
            encode_frame(obj)
        message = str(err.value)
        assert "key='deadbeef'" in message
        assert "op='fetch'" in message
        assert "1024-byte cap" in message
        assert "bytes" in message

    def test_unkeyed_frame_still_identified(self, monkeypatch):
        monkeypatch.setattr(transport_mod, "MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameTooLarge, match="unkeyed frame"):
            encode_frame({"x": "y" * 100})

    def test_shard_frames_identified_by_payload_count(self, monkeypatch):
        monkeypatch.setattr(transport_mod, "MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameTooLarge, match=r"shard of 3 payload\(s\)"):
            encode_frame({"payloads": [{"a": 1}, {"b": 2}, {"c": "d" * 80}]})

    def test_server_reports_oversized_response_instead_of_dying(self, monkeypatch):
        # the response path: the handler's answer exceeds the cap, the
        # connection must survive and the client must see the cap error
        async def handler(request):
            if request.get("op") == "big":
                return {"ok": True, "key": "bigkey", "payload": Blob(os.urandom(9000))}
            return {"ok": True, "op": "pong"}

        async def scenario():
            server, port = await serve_socket(handler)
            t = SocketTransport("127.0.0.1", port)
            try:
                monkeypatch.setattr(transport_mod, "MAX_FRAME_BYTES", 4096)
                big = await t.call({"op": "big"})
                after = await t.call({"op": "ping"})
                return big, after
            finally:
                monkeypatch.undo()
                await t.close()
                server.close()
                await server.wait_closed()

        big, after = asyncio.run(scenario())
        assert big["ok"] is False
        assert "key='bigkey'" in big["message"]
        assert "4096-byte cap" in big["message"]
        assert after == {"ok": True, "op": "pong"}
