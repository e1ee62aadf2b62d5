"""Request/response transport over length-prefixed binary frames (stdlib only).

A transport carries one request dict to a worker agent and returns one
response dict.  Two implementations:

* :class:`InProcessTransport` -- calls an async handler directly, but
  passes both messages through the frame codec, so in-process peers see
  exactly what a socket peer sees; used by tests and by single-process
  deployments.
* :class:`SocketTransport` / :func:`serve_socket` -- a TCP stream
  (asyncio streams, one request in flight per connection, transparent
  reconnect).  Point it at ``127.0.0.1`` today; pointing it at another
  host *is the whole multi-host story* -- the scheduler neither knows
  nor cares where the worker runs.

Every message travels as one frame: a fixed :mod:`struct` header
``!4sBIQ`` -- magic ``0xAB 'RF1'``, flags, meta length, body length --
followed by the body: a JSON *meta* document (the control dict with
each :class:`Blob` replaced by an index placeholder, plus a segment
table of ``[codec, length]`` pairs) concatenated with the raw blob
payload segments.  Flag bit 0 marks a zlib-deflated body.  Frames are
outside input: a header, meta document or segment table that does not
describe its body exactly is refused with ``ConnectionError``.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib

__all__ = [
    "Blob",
    "FrameTooLarge",
    "Transport",
    "InProcessTransport",
    "SocketTransport",
    "Listener",
    "serve_socket",
    "encode_frame",
    "decode_binary_body",
    "read_frame",
]

#: refuse absurd frames instead of buffering without bound
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: frame header: magic, flags, meta length, body length.
#: ``body length`` counts on-wire bytes after the header (post-deflate);
#: ``meta length`` counts bytes of the *inflated* meta document so the
#: reader can split meta from payload after decompressing.
FRAME_MAGIC = b"\xabRF1"
_HEADER = struct.Struct("!4sBIQ")
FLAG_DEFLATE = 0x01

#: deflate the body when it shrinks; tiny control frames skip the call
_DEFLATE_THRESHOLD = 512

_REF_KEY = "__blob__"


class FrameTooLarge(ValueError):
    """An encoded frame exceeded :data:`MAX_FRAME_BYTES`."""


class Blob:
    """A raw byte payload riding inside a transport message.

    ``codec`` names the payload encoding (``"result-v1"``, ``"npy"``,
    ``"json"``, ...) so receivers dispatch without sniffing.  The bytes
    travel verbatim as one segment of the frame body.
    """

    __slots__ = ("data", "codec")

    def __init__(self, data: bytes, codec: str = "bytes") -> None:
        self.data = bytes(data)
        self.codec = codec

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Blob)
            and self.data == other.data
            and self.codec == other.codec
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Blob({len(self.data)} bytes, codec={self.codec!r})"


def _frame_identity(obj: dict) -> str:
    """``key=... op=...`` fragment for cap errors (satellite: the frame
    cap must name the offending key, not just the limit)."""
    parts = []
    if isinstance(obj, dict):
        key = obj.get("key")
        if key:
            parts.append(f"key={key!r}")
        op = obj.get("op")
        if op:
            parts.append(f"op={op!r}")
        if not parts and "payloads" in obj:
            parts.append(f"shard of {len(obj['payloads'])} payload(s)")
    return ", ".join(parts) or "unkeyed frame"


def _check_cap(nbytes: int, obj: dict) -> None:
    if nbytes > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"transport frame of {nbytes} bytes ({_frame_identity(obj)}) "
            f"exceeds the {MAX_FRAME_BYTES}-byte cap"
        )


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def _strip_blobs(obj, blobs: list):
    """Copy of ``obj`` with blobs hoisted into ``blobs`` by index."""
    if isinstance(obj, Blob):
        blobs.append(obj)
        return {_REF_KEY: len(blobs) - 1}
    if isinstance(obj, dict):
        return {k: _strip_blobs(v, blobs) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strip_blobs(v, blobs) for v in obj]
    return obj


def _inject_blobs(obj, blobs: list):
    if isinstance(obj, dict):
        if _REF_KEY in obj and len(obj) == 1:
            index = obj[_REF_KEY]
            if type(index) is not int or not 0 <= index < len(blobs):
                raise ValueError(
                    f"blob reference {index!r} outside the {len(blobs)}-segment table"
                )
            return blobs[index]
        return {k: _inject_blobs(v, blobs) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_inject_blobs(v, blobs) for v in obj]
    return obj


def _split_segments(meta, body: bytes, offset: int) -> list:
    """The blobs ``meta``'s segment table cuts from ``body[offset:]``,
    which the segments must cover exactly."""
    table = meta.get("b") if isinstance(meta, dict) and "c" in meta else None
    if not isinstance(table, list):
        raise ValueError('meta is not a {"c": ..., "b": [...]} object')
    blobs = []
    for entry in table:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and type(entry[1]) is int
            and entry[1] >= 0
        ):
            raise ValueError(f"segment {entry!r} is not a [codec, length] pair")
        end = offset + entry[1]
        if end > len(body):
            raise ValueError(
                f"segment table overruns the body ({end} > {len(body)} bytes)"
            )
        blobs.append(Blob(body[offset:end], entry[0]))
        offset = end
    if offset != len(body):
        raise ValueError(f"{len(body) - offset} byte(s) follow the last segment")
    return blobs


def encode_frame(obj: dict) -> bytes:
    """One message -> one on-wire frame.

    Raises :class:`FrameTooLarge` (naming the offending key and size)
    instead of emitting a frame the far end would refuse to read.
    """
    blobs: list[Blob] = []
    control = _strip_blobs(obj, blobs)
    meta = {
        "c": control,
        "b": [[b.codec, len(b.data)] for b in blobs],
    }
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode()
    body = meta_bytes + b"".join(b.data for b in blobs)
    flags = 0
    if len(body) >= _DEFLATE_THRESHOLD:
        packed = zlib.compress(body, 6)
        if len(packed) < len(body):
            body, flags = packed, FLAG_DEFLATE
    _check_cap(_HEADER.size + len(body), obj)
    return _HEADER.pack(FRAME_MAGIC, flags, len(meta_bytes), len(body)) + body


def decode_binary_body(flags: int, meta_len: int, body: bytes) -> dict:
    """Inverse of :func:`encode_frame` after the header.

    Raises ``ConnectionError`` for any body its meta does not describe
    exactly: unknown flags, a corrupt or bloated deflate stream, a meta
    document that is not ``{"c": {...}, "b": [[codec, length], ...]}``,
    a blob reference outside the segment table, and segments that
    overrun the body or leave bytes after the last one.
    """
    if flags & ~FLAG_DEFLATE:
        raise ConnectionError(f"binary frame has unknown flags 0x{flags:02x}")
    if flags & FLAG_DEFLATE:
        inflater = zlib.decompressobj()
        try:
            body = inflater.decompress(body, MAX_FRAME_BYTES)
        except zlib.error as exc:
            raise ConnectionError(f"deflated transport frame is corrupt: {exc}") from None
        if inflater.unconsumed_tail or inflater.unused_data or not inflater.eof:
            raise ConnectionError(
                "deflated transport frame is truncated, has trailing bytes, "
                f"or inflates past the {MAX_FRAME_BYTES}-byte cap"
            )
    if meta_len > len(body):
        raise ConnectionError(
            f"binary frame meta length {meta_len} exceeds body of {len(body)} bytes"
        )
    try:
        meta = json.loads(body[:meta_len])
        blobs = _split_segments(meta, body, meta_len)
        obj = _inject_blobs(meta["c"], blobs)
        if not isinstance(obj, dict):
            raise ValueError(f"expected an object frame, got {type(obj).__name__}")
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors included
        raise ConnectionError(f"malformed binary frame: {exc}") from None
    return obj


async def read_frame(reader: asyncio.StreamReader):
    """Read one frame.

    Returns ``(obj, nbytes)`` or ``None`` on a clean EOF between frames.
    A stream that is not a frame, a frame torn by EOF mid-header or
    mid-body, and a malformed body raise ``ConnectionError``.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError(
            f"torn binary frame: connection closed after "
            f"{len(exc.partial)} of {_HEADER.size} bytes"
        ) from None
    magic, flags, meta_len, body_len = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ConnectionError(f"not a transport frame: bad magic {magic!r}")
    if body_len > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"binary transport frame of {body_len} bytes exceeds "
            f"the {MAX_FRAME_BYTES}-byte cap"
        )
    nbytes = _HEADER.size + body_len
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError(
            f"torn binary frame: connection closed after "
            f"{_HEADER.size + len(exc.partial)} of {nbytes} bytes"
        ) from None
    return decode_binary_body(flags, meta_len, body), nbytes


class Transport:
    """One request dict in, one response dict out."""

    async def call(self, request: dict) -> dict:
        raise NotImplementedError

    async def close(self) -> None:  # pragma: no cover - trivial default
        pass


async def _relay(obj: dict) -> dict:
    """``obj`` as the far end of a socket reads it."""
    reader = asyncio.StreamReader()
    reader.feed_data(encode_frame(obj))
    reader.feed_eof()
    return (await read_frame(reader))[0]


class InProcessTransport(Transport):
    """Direct dispatch to an async handler -- the degenerate transport.

    Request and response still pass through the frame codec, so only
    frame-expressible messages survive, exactly as over a socket: blobs
    stay blobs, tuples become lists, an oversized message raises
    :class:`FrameTooLarge`.
    """

    def __init__(self, handler) -> None:
        self.handler = handler

    async def call(self, request: dict) -> dict:
        response = await self.handler(await _relay(request))
        return await _relay(response)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InProcessTransport({self.handler!r})"


class SocketTransport(Transport):
    """Persistent socket client connection.

    One request is in flight per transport at a time (an internal lock
    serializes callers); the scheduler fans out across *several*
    transports for parallelism.  A dead connection is re-opened once
    per call before the error propagates.  An attached
    :class:`~repro.service.metrics.ServiceMetrics` receives
    ``frames_binary`` / ``bytes_sent`` / ``bytes_received`` counts for
    every round trip.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, metrics=None) -> None:
        self.host = host
        self.port = int(port)
        self.metrics = metrics
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    @classmethod
    def from_address(cls, address: str, **kwargs) -> "SocketTransport":
        """``host:port`` (or ``:port`` for localhost) -> transport."""
        host, _, port = address.rpartition(":")
        return cls(host or "127.0.0.1", int(port), **kwargs)

    def _count(self, name: str, delta: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, delta)

    async def _roundtrip(self, request: dict) -> dict:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        frame = encode_frame(request)
        self._count("frames_binary")
        self._count("bytes_sent", len(frame))
        self._writer.write(frame)
        await self._writer.drain()
        read = await read_frame(self._reader)
        if read is None:
            raise ConnectionError("worker closed the connection mid-request")
        response, nbytes = read
        self._count("bytes_received", nbytes)
        return response

    async def call(self, request: dict) -> dict:
        async with self._lock:
            try:
                return await self._roundtrip(request)
            except OSError:  # ConnectionError included
                # stale connection (worker restarted, idle timeout...):
                # reconnect once, then let a second failure propagate
                await self.close()
                return await self._roundtrip(request)

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racy peer reset
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SocketTransport({self.host}:{self.port})"


def _error_reply(message) -> dict:
    return {"ok": False, "kind": "error", "message": str(message)}


class Listener:
    """An ``asyncio.Server`` whose shutdown closes idle connections and
    lets each request in flight finish (``asyncio.Server.wait_closed()``
    alone waits for every connection on Python 3.12.1 and later, idle or
    not).  ``close()``, ``wait_closed()``, ``serve_forever()`` and
    ``async with`` work as on the server.  A connection handler sets
    ``conns[its task]`` to its writer while it waits for the next
    request and to ``None`` while it serves one, and stops once
    ``closing`` is set."""

    def __init__(self) -> None:
        self.server: asyncio.AbstractServer | None = None
        self.conns: dict = {}
        self.closing = False

    async def start(self, handler, host: str, port: int, **kwargs) -> int:
        """Listen with ``handler`` per connection; returns the bound port."""
        self.server = await asyncio.start_server(handler, host, port, **kwargs)
        return self.server.sockets[0].getsockname()[1]

    def close(self) -> None:
        self.server.close()
        self.closing = True
        for writer in filter(None, self.conns.values()):
            writer.close()

    async def wait_closed(self) -> None:
        if self.conns:
            await asyncio.wait(list(self.conns))
        await self.server.wait_closed()

    async def serve_forever(self) -> None:
        async with self:
            await asyncio.get_running_loop().create_future()

    async def __aenter__(self) -> "Listener":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
        await self.wait_closed()


async def serve_socket(handler, host: str = "127.0.0.1", port: int = 0):
    """Serve ``handler`` (async dict -> dict) over binary frames;
    returns ``(server, bound_port)``.  ``port=0`` binds an ephemeral
    port -- the test and CI lanes use that to avoid clashes.

    A handler exception or an oversized response is answered with an
    error frame and the connection keeps serving.  A stream that stops
    parsing as frames gets one error frame and is then closed: its
    frame boundaries are lost.  Closing ``server`` closes idle
    connections; a frame in flight is answered first.
    """
    listener = Listener()

    async def on_connection(reader, writer) -> None:
        task = asyncio.current_task()
        try:
            while not listener.closing:
                listener.conns[task] = writer
                try:
                    read = await read_frame(reader)
                except ConnectionError as exc:
                    writer.write(encode_frame(_error_reply(exc)))
                    await writer.drain()
                    break
                listener.conns[task] = None
                if read is None:
                    break
                try:
                    response = await handler(read[0])
                except Exception as exc:  # handler bug: report, keep serving
                    response = _error_reply(f"{type(exc).__name__}: {exc}")
                try:
                    frame = encode_frame(response)
                except FrameTooLarge as exc:
                    frame = encode_frame(_error_reply(exc))
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer vanished
            pass
        finally:
            listener.conns.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    return listener, await listener.start(on_connection, host, port)
