"""HTTP front end and client for the sweep service (stdlib only).

A deliberately small HTTP/1.1 server written directly on asyncio
streams, so the request path shares the scheduler's event loop -- no
threads between a warm ``POST /submit`` and the content-addressed
store.  Endpoints:

* ``GET /healthz`` -- liveness probe (``ok``).
* ``GET /status`` -- JSON snapshot: scheduler config, metrics, store
  counters, aggregator progress, uptime.
* ``GET /metrics`` -- Prometheus text exposition: hit/miss counters,
  queue depth, in-flight dedup gauge, per-stage latency histograms,
  plus the two stores' session counters.
* ``GET /result/<key>`` -- one cell by its SHA-256 content address;
  404 on a cold key (the front end never *computes* on a GET).
* ``POST /submit`` -- body ``{"specs": [specdict, ...]}`` or
  ``{"grid": {"programs": [...], "locks": [...], "models": [...],
  "scale": ..., "seed": ...}}``, optionally ``"priority": "high"``;
  cells are served through the scheduler (cache hit, peer fetch,
  dedup attach, or compute) and the response carries one entry per
  cell in request order.  When the scheduler's bounded queue is full
  the submit is refused with ``503`` and a ``Retry-After`` header
  carrying the drain-time estimate (load shedding, not queuing
  collapse).

:class:`ServiceClient` is the synchronous counterpart the CLI (``repro
submit`` / ``repro status``) uses: a :mod:`http.client` connection kept
alive across requests.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time
from urllib.error import HTTPError

from ..runner.serialize import result_to_json
from ..runner.spec import JobSpec
from .aggregator import StreamAggregator
from .planner import grid_specs
from .scheduler import Overloaded, Scheduler
from .transport import Listener

__all__ = ["ServiceServer", "ServiceClient"]

_MAX_BODY = 64 * 1024 * 1024


class _BadRequest(Exception):
    pass


class ServiceServer:
    """The sweep service: one scheduler behind an HTTP listener."""

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        aggregator: StreamAggregator | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = int(port)
        self.aggregator = aggregator if aggregator is not None else StreamAggregator()
        self._listener = Listener()
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    async def start(self) -> "ServiceServer":
        self.port = await self._listener.start(
            self._connection, self.host, self.port, limit=_MAX_BODY
        )
        self._started = time.monotonic()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until cancelled, then :meth:`close` (``asyncio``'s own
        would wait for idle kept-alive connections to close)."""
        assert self._listener.server is not None, "call start() first"
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.close()

    async def close(self) -> None:
        """Stop listening, close idle connections, let each request in
        flight finish and close its connection, close the scheduler."""
        if self._listener.server is not None:
            self._listener.close()
            await self._listener.wait_closed()
        self.scheduler.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        try:
            while not self._listener.closing:
                self._listener.conns[task] = writer
                line = await reader.readline()
                self._listener.conns[task] = None
                try:
                    request = await self._read_request(reader, line)
                except _BadRequest as exc:
                    # the stream cannot be trusted past a malformed
                    # request: answer it, then close
                    self._write_response(writer, *_error(400, exc), False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                extra_headers: tuple = ()
                try:
                    status, payload, content_type = await self._route(
                        method, path, body
                    )
                except _BadRequest as exc:
                    status, payload, content_type = _error(400, exc)
                except Overloaded as exc:
                    # load shedding: refuse now, tell the client when
                    # the queue should have drained
                    retry_after = max(1, round(exc.retry_after))
                    status, payload, content_type = _error(503, exc, retry_after=retry_after)
                    extra_headers = ((f"Retry-After: {retry_after}"),)
                except Exception as exc:  # route bug: report, keep serving
                    status, payload, content_type = _error(500, f"{type(exc).__name__}: {exc}")
                keep = headers.get("connection", "keep-alive").lower() != "close"
                keep = keep and not self._listener.closing
                self._write_response(
                    writer, status, payload, content_type, keep, extra_headers
                )
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-request; nothing to answer
        finally:
            self._listener.conns.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(reader, line: bytes):
        if not line or not line.strip():
            return None
        try:
            method, path, _version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest(f"malformed request line {line!r:.100}")
        headers = {}
        while True:
            h = await reader.readline()
            if h in (b"\r\n", b"\n", b""):
                break
            name, _, value = h.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not raw_length.isdecimal():
            raise _BadRequest(f"Content-Length {raw_length!r:.40} is not a byte count")
        length = int(raw_length)
        if length > _MAX_BODY:
            raise _BadRequest(f"body of {length} bytes exceeds the limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    @staticmethod
    def _write_response(
        writer, status, payload: bytes, content_type, keep, extra_headers=()
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed", 500: "Internal Server Error", 503: "Service Unavailable"}.get(status, "OK")
        extra = "".join(f"{h}\r\n" for h in extra_headers)
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0]
        if path == "/healthz":
            return 200, b"ok\n", "text/plain; charset=utf-8"
        if path == "/metrics":
            if method != "GET":
                return _error(405, "GET only")
            return 200, self._metrics_text().encode(), "text/plain; version=0.0.4; charset=utf-8"
        if path == "/status":
            return 200, _json(self._status()), "application/json"
        if path.startswith("/result/"):
            return await self._get_result(path[len("/result/") :])
        if path == "/submit":
            if method != "POST":
                return _error(405, "POST only")
            return await self._submit(body)
        return _error(404, f"no route {path!r}")

    def _status(self) -> dict:
        out = self.scheduler.status()
        out["uptime_s"] = round(time.monotonic() - self._started, 3)
        out["aggregator"] = self.aggregator.to_dict()
        return out

    def _metrics_text(self) -> str:
        text = self.scheduler.metrics.render_prometheus()
        lines = []
        for label, stats in (
            ("result_cache", getattr(self.scheduler.cache, "stats", None)),
            ("trace_cache", getattr(self.scheduler.trace_cache, "stats", None)),
        ):
            if stats is None:
                continue
            lines.append(f"# HELP repro_{label}_ops_total Store session counters")
            lines.append(f"# TYPE repro_{label}_ops_total counter")
            for op in ("hits", "misses", "puts", "invalidated"):
                lines.append(
                    f'repro_{label}_ops_total{{op="{op}"}} {getattr(stats, op)}'
                )
        return text + ("\n".join(lines) + "\n" if lines else "")

    async def _get_result(self, key: str):
        cache = self.scheduler.cache
        if cache is None:
            return _error(404, "service runs without a result cache")
        body = cache.get_bytes(key)
        if body is None:
            return _error(404, f"no cached result for key {key}")
        return 200, _with_result({"key": key}, body), "application/json"

    async def _submit(self, body: bytes):
        try:
            request = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"body is not JSON: {exc}")
        if not isinstance(request, dict):
            raise _BadRequest("body must be a JSON object")
        specs = self._parse_specs(request)
        priority = request.get("priority", "normal")
        if priority not in ("normal", "high"):
            raise _BadRequest(f'priority must be "normal" or "high", got {priority!r}')
        outs = await self.scheduler.submit_grid(
            specs, n_shards=request.get("n_shards"), priority=priority
        )
        include_results = request.get("include_results", True)
        entries = []
        for out in outs:
            self.aggregator.record(out.manifest_record())
            entry = {
                "key": out.key,
                "label": out.spec.label(),
                "status": out.status,
                "ok": out.ok,
                "attempts": out.attempts,
                "elapsed_s": round(out.elapsed_s, 6),
            }
            if not out.ok:
                entry["error"] = {
                    "kind": out.outcome.kind,
                    "message": out.outcome.message,
                    "attempts": out.outcome.attempts,
                }
            if out.ok and include_results:
                # a hit's result is the store's verified bytes, undecoded
                body = out.result_json or result_to_json(out.outcome).encode()
                entries.append(_with_result(entry, body))
            else:
                entries.append(_json(entry))
        tail = _json(
            {
                "summary": self.aggregator.summary(),
                "metrics": self.scheduler.metrics.to_dict(),
            }
        )
        payload = b'{"results": [' + b", ".join(entries) + b"], " + tail[1:]
        return 200, payload, "application/json"

    @staticmethod
    def _parse_specs(request: dict) -> list[JobSpec]:
        if "specs" in request:
            raw = request["specs"]
            if not isinstance(raw, list) or not raw:
                raise _BadRequest('"specs" must be a non-empty list of spec dicts')
            try:
                return [JobSpec.from_dict(d) for d in raw]
            except Exception as exc:
                raise _BadRequest(f"bad spec: {type(exc).__name__}: {exc}")
        if "grid" in request:
            grid = request["grid"]
            if not isinstance(grid, dict) or not grid.get("programs"):
                raise _BadRequest('"grid" needs at least "programs"')
            try:
                return grid_specs(
                    grid["programs"],
                    lock_schemes=grid.get("locks", ("queuing",)),
                    models=grid.get("models", ("sc",)),
                    scale=grid.get("scale", 1.0),
                    seed=grid.get("seed", 1991),
                    n_procs=grid.get("n_procs"),
                )
            except Exception as exc:
                raise _BadRequest(f"bad grid: {type(exc).__name__}: {exc}")
        raise _BadRequest('body needs "specs" or "grid"')


def _json(obj) -> bytes:
    return json.dumps(obj).encode()


def _error(status: int, message, **extra) -> tuple:
    """``(status, payload, content type)`` of a JSON error reply."""
    return status, _json({"error": str(message), **extra}), "application/json"


def _with_result(obj: dict, body: bytes) -> bytes:
    """``obj`` as JSON with one more member, ``"result"``, whose value is
    ``body`` -- already-encoded JSON, spliced in without decoding."""
    return _json(obj)[:-1] + b', "result": ' + body + b"}"


# ----------------------------------------------------------------------
# Synchronous client (CLI, scripts, benchmarks)
# ----------------------------------------------------------------------
class ServiceClient:
    """Blocking HTTP client for a :class:`ServiceServer`: requests share
    one kept-alive connection (reopened once if the server closed it
    while idle), a lock serializes threads, and a non-2xx reply raises
    :class:`urllib.error.HTTPError`.  Close it, or use it in ``with``."""

    def __init__(self, url: str, timeout: float = 300.0) -> None:
        # imported here: a process that never talks HTTP (the cold grid
        # pass, say) need not load http.client
        from http.client import HTTPConnection
        from urllib.parse import urlsplit

        self.url = url.rstrip("/")
        self.timeout = timeout
        where = urlsplit(self.url)
        self._prefix = where.path
        self._conn = HTTPConnection(where.hostname, where.port, timeout)
        self._lock = threading.Lock()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            self._conn.close()  # the next request opens a new one

    def _request(self, path: str, data: bytes | None = None) -> bytes:
        headers = {"Content-Type": "application/json"} if data else {}
        request = ("GET" if data is None else "POST", self._prefix + path, data, headers)
        conn = self._conn
        with self._lock:
            try:
                try:
                    reused = conn.sock is not None
                    conn.request(*request)
                    resp = conn.getresponse()
                except ConnectionError:
                    if not reused:
                        raise
                    # the server closed the kept connection while it
                    # was idle, so no byte came back: send once more
                    conn.close()
                    conn.request(*request)
                    resp = conn.getresponse()
                body = resp.read()
            except BaseException:
                conn.close()
                raise
        if not 200 <= resp.status < 300:
            url, fp = self.url + path, io.BytesIO(body)
            raise HTTPError(url, resp.status, resp.reason, resp.headers, fp)
        return body

    def healthy(self) -> bool:
        try:
            return self._request("/healthz").strip() == b"ok"
        except OSError:
            return False

    def status(self) -> dict:
        return json.loads(self._request("/status"))

    def metrics(self) -> str:
        return self._request("/metrics").decode()

    def result(self, key: str) -> dict | None:
        try:
            return json.loads(self._request(f"/result/{key}"))["result"]
        except HTTPError as exc:
            if exc.code == 404:
                return None
            raise

    def submit(
        self,
        specs=None,
        grid: dict | None = None,
        include_results: bool = True,
        n_shards: int | None = None,
        priority: str | None = None,
    ) -> dict:
        body: dict = {"include_results": include_results}
        if specs is not None:
            body["specs"] = [
                s.to_dict() if isinstance(s, JobSpec) else s for s in specs
            ]
        if grid is not None:
            body["grid"] = grid
        if n_shards is not None:
            body["n_shards"] = n_shards
        if priority is not None:
            body["priority"] = priority
        return json.loads(self._request("/submit", _json(body)))
