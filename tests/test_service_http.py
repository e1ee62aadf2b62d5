"""The HTTP front end end-to-end over localhost: submit grids through
the scheduler, read metrics/status, and exercise the error paths —
using the same blocking :class:`ServiceClient` the CLI uses."""

import asyncio
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.runner import JobSpec, ResultCache, run_jobs
from repro.runner import serialize
from repro.service import (
    Scheduler,
    ServiceClient,
    ServiceServer,
    SocketTransport,
    grid_specs,
    serve_socket,
)

pytestmark = pytest.mark.service

GOOD = JobSpec(program="fullconn", scale=0.05)
GOOD2 = JobSpec(program="qsort", scale=0.05)
FAULTY = JobSpec(program="does-not-exist", scale=0.05)
GRID = {"programs": ["fullconn", "qsort"], "locks": ["queuing", "ttas"], "scale": 0.05}


@pytest.fixture
def service(tmp_path):
    """A live service on an ephemeral localhost port, its event loop on
    a background thread so the blocking client can call it from the
    test thread."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    # jobs=2 -> pool backend, so concurrent duplicates genuinely race
    # the in-flight table (the dedup acceptance path)
    scheduler = Scheduler(jobs=2, cache=ResultCache(tmp_path / "cache"))
    server = ServiceServer(scheduler)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=30)
    client = ServiceClient(server.url, timeout=120)
    try:
        yield server, client
    finally:
        client.close()
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


class TestEndpoints:
    def test_healthz(self, service):
        _server, client = service
        assert client.healthy()

    def test_submit_cold_then_warm(self, service):
        _server, client = service
        cold = client.submit(specs=[GOOD])
        assert [r["status"] for r in cold["results"]] == ["ok"]
        assert cold["results"][0]["key"] == GOOD.cache_key()
        assert cold["results"][0]["result"]["run_time"] > 0
        warm = client.submit(specs=[GOOD])
        assert [r["status"] for r in warm["results"]] == ["hit"]
        assert warm["results"][0]["result"] == cold["results"][0]["result"]
        assert warm["metrics"]["cache_hits"] == 1
        assert warm["metrics"]["executed"] == 1

    def test_submit_grid_body(self, service):
        _server, client = service
        response = client.submit(
            grid={
                "programs": ["fullconn", "qsort"],
                "locks": ["queuing", "ttas"],
                "scale": 0.05,
            },
            include_results=False,
        )
        assert len(response["results"]) == 4
        assert all(r["ok"] for r in response["results"])
        assert all("result" not in r for r in response["results"])
        assert "4 cell(s)" in response["summary"]

    def test_duplicate_submissions_simulate_once(self, service):
        """Acceptance: one POST carrying N identical cold cells runs
        exactly one simulation; every entry reports the same result."""
        _server, client = service
        response = client.submit(specs=[GOOD] * 3)
        metrics = response["metrics"]
        assert metrics["executed"] == 1
        assert metrics["dedup_attached"] == 2
        statuses = sorted(r["status"] for r in response["results"])
        assert statuses == ["attached", "attached", "ok"]
        results = [r["result"] for r in response["results"]]
        assert results[0] == results[1] == results[2]

    def test_result_roundtrip_and_404(self, service):
        _server, client = service
        assert client.result(GOOD.cache_key()) is None  # cold: 404
        submitted = client.submit(specs=[GOOD])
        fetched = client.result(GOOD.cache_key())
        assert fetched == submitted["results"][0]["result"]
        assert client.result("0" * 64) is None

    def test_failed_cell_reported_per_entry(self, service):
        _server, client = service
        response = client.submit(specs=[FAULTY, GOOD])
        by_label = {r["label"]: r for r in response["results"]}
        bad = by_label[FAULTY.label()]
        assert bad["ok"] is False and bad["status"] == "failed"
        assert bad["error"]["kind"] == "error"
        assert by_label[GOOD.label()]["ok"] is True

    def test_status_snapshot(self, service):
        _server, client = service
        client.submit(specs=[GOOD])
        status = client.status()
        assert status["jobs"] == 2
        assert status["metrics"]["executed"] == 1
        assert status["cache"]["session"]["puts"] == 1
        assert status["uptime_s"] >= 0
        assert status["aggregator"]["cells"] == 1

    def test_metrics_exposition(self, service):
        _server, client = service
        client.submit(specs=[GOOD])
        client.submit(specs=[GOOD])
        text = client.metrics()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 2" in text
        assert "repro_cache_hits_total 1" in text
        assert "repro_in_flight 0" in text
        assert 'repro_stage_latency_seconds_count{stage="total"} 2' in text
        assert 'repro_result_cache_ops_total{op="puts"} 1' in text
        # every scrape line is well-formed: name{labels} value or
        # name value, no stray content
        for line in text.strip().splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2


class TestErrorPaths:
    def _post(self, url, path, body: bytes):
        req = urllib.request.Request(
            url + path, data=body, headers={"Content-Type": "application/json"}
        )
        return urllib.request.urlopen(req, timeout=30)

    def test_submit_rejects_non_json(self, service):
        server, _client = service
        with pytest.raises(urllib.error.HTTPError) as info:
            self._post(server.url, "/submit", b"not json")
        assert info.value.code == 400
        assert "not JSON" in json.loads(info.value.read())["error"]

    def test_submit_rejects_empty_request(self, service):
        server, _client = service
        with pytest.raises(urllib.error.HTTPError) as info:
            self._post(server.url, "/submit", b"{}")
        assert info.value.code == 400

    def test_submit_requires_post(self, service):
        server, _client = service
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(server.url + "/submit", timeout=30)
        assert info.value.code == 405

    def test_unknown_route_404(self, service):
        server, _client = service
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(server.url + "/nope", timeout=30)
        assert info.value.code == 404


def _reference_result(spec: JobSpec) -> dict:
    """What the front end answered for ``spec`` before hits were served
    as stored bytes: ``result_to_dict`` of a fresh run, through JSON."""
    return json.loads(json.dumps(serialize.result_to_dict(spec.run())))


def _forbid_result_codec(monkeypatch) -> None:
    """Make ``result_from_dict`` and ``result_to_dict`` raise in every
    ``repro`` module that holds them."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a stored result was decoded or re-encoded")

    for name in ("result_from_dict", "result_to_dict"):
        original = getattr(serialize, name)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, forbidden)


class TestStoredBytes:
    ENTRY_FIELDS = ["key", "label", "status", "ok", "attempts", "elapsed_s"]

    def test_warm_grid_never_decodes_a_hit(self, service, monkeypatch):
        _server, client = service
        cold = client.submit(grid=GRID)
        _forbid_result_codec(monkeypatch)
        warm = client.submit(grid=GRID)
        assert [r["status"] for r in warm["results"]] == ["hit"] * 4
        assert [r["result"] for r in warm["results"]] == [
            r["result"] for r in cold["results"]
        ]
        key = cold["results"][0]["key"]
        assert client.result(key) == cold["results"][0]["result"]

    def _check_entries(self, response, expected: dict, include_results=True):
        assert list(response) == ["results", "summary", "metrics"]
        for entry in response["results"]:
            reference = {name: entry[name] for name in self.ENTRY_FIELDS}
            if not entry["ok"]:
                reference["error"] = entry["error"]
                assert list(entry["error"]) == ["kind", "message", "attempts"]
            elif include_results:
                reference["result"] = expected[entry["label"]]
            assert list(entry) == list(reference)
            assert entry == reference

    def test_responses_parse_to_the_reference_entries(self, service):
        """Hits, executed cells, a failed cell, a results-free submit and
        ``GET /result`` all parse to what ``result_to_dict`` gives."""
        _server, client = service
        expected = {spec.label(): _reference_result(spec) for spec in (GOOD, GOOD2)}
        cold = client.submit(specs=[GOOD, FAULTY])
        assert [r["status"] for r in cold["results"]] == ["ok", "failed"]
        self._check_entries(cold, expected)
        mixed = client.submit(specs=[GOOD, GOOD2, FAULTY])
        assert [r["status"] for r in mixed["results"]] == ["hit", "ok", "failed"]
        self._check_entries(mixed, expected)
        bare = client.submit(specs=[GOOD, GOOD2, FAULTY], include_results=False)
        assert [r["status"] for r in bare["results"]] == ["hit", "hit", "failed"]
        self._check_entries(bare, expected, include_results=False)
        for spec in (GOOD, GOOD2):
            raw = json.loads(client._request(f"/result/{spec.cache_key()}"))
            assert raw == {"key": spec.cache_key(), "result": expected[spec.label()]}


def _raw_exchange(url: str, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection; everything the server
    sends back before it closes."""
    where = urlsplit(url)
    with socket.create_connection((where.hostname, where.port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestMalformedRequests:
    CASES = {
        "request_line": (b"NONSENSE\r\n\r\n", "malformed request line"),
        "content_length": (
            b"POST /submit HTTP/1.1\r\nContent-Length: many\r\n\r\n",
            "Content-Length 'many' is not a byte count",
        ),
        "body_limit": (
            b"POST /submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (64 * 1024 * 1024 + 1),
            "exceeds the limit",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_answered_with_400_then_closed(self, service, case):
        server, client = service
        request, problem = self.CASES[case]
        reply = _raw_exchange(server.url, request)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert problem in json.loads(body)["error"]
        assert client.healthy()


#: what serving or submitting stored results must not load: numpy and
#: the simulator, which a miss loads, and the analysis layer
SIMULATOR = (
    "numpy",
    "repro.core",
    "repro.machine.processor",
    "repro.machine.system",
    "repro.trace",
    "repro.workloads",
)


def test_import_leaves_analysis_and_http_client_unloaded(fresh_python):
    """``import repro``, ``repro.runner`` and ``repro.service`` (a front
    end and its client import all three; the cold grid pass imports the
    service for ``grid_specs``) load neither the simulator, nor the
    analysis layer, which only ``StreamAggregator.table`` needs, nor
    urllib's HTTP client, which only ``ServiceClient`` needs."""
    unloaded = (*SIMULATOR, "urllib.request", "http.client")
    probe = (
        "import sys, repro, repro.runner, repro.service; "
        f"print(sorted(m for m in {unloaded!r} if m in sys.modules))"
    )
    assert fresh_python(probe) == "[]"


_SERVE_STORED = """
import asyncio, json, sys, threading
from repro.runner import ResultCache
from repro.service import Scheduler, ServiceClient, ServiceServer

loop = asyncio.new_event_loop()
threading.Thread(target=loop.run_forever, daemon=True).start()
scheduler = Scheduler(jobs=1, cache=ResultCache(sys.argv[1]), trace_cache=False)
server = ServiceServer(scheduler)
asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
with ServiceClient(server.url, timeout=60) as client:
    response = client.submit(grid=json.loads(sys.argv[2]))
asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
print([e["status"] for e in response["results"]],
      sorted(m for m in json.loads(sys.argv[3]) if m in sys.modules))
"""


def test_serving_a_stored_grid_loads_no_simulator(tmp_path, fresh_python):
    """A front end built as the benchmark builds it (``jobs=1``, no trace
    store) serves a grid of store hits, and its client submits it,
    without loading numpy or the simulator."""
    grid = {"programs": ["grav", "qsort"], "locks": ["queuing"], "models": ["sc"], "scale": 0.01}
    specs = grid_specs(grid["programs"], scale=grid["scale"])
    store = tmp_path / "store"
    assert run_jobs(specs, cache=ResultCache(store), trace_cache=False).ok()
    out = fresh_python(_SERVE_STORED, str(store), json.dumps(grid), json.dumps(SIMULATOR))
    assert out == "['hit', 'hit'] []"


class _CountingServer(ServiceServer):
    """A front end that counts the connections it accepts."""

    accepts = 0

    async def _connection(self, reader, writer) -> None:
        self.accepts += 1
        await super()._connection(reader, writer)


@pytest.fixture
def live_loop():
    """An event loop on a background thread; yields a function that
    runs a coroutine on it and returns its result.  Anything the loop
    reports to its exception handler fails the test."""
    loop = asyncio.new_event_loop()
    reported = []
    loop.set_exception_handler(lambda _loop, context: reported.append(context))
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def run(coro, timeout=30):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=timeout)

    try:
        yield run
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
    assert not reported, reported


@pytest.fixture
def counting(tmp_path, live_loop):
    server = _CountingServer(Scheduler(cache=ResultCache(tmp_path / "c")))
    live_loop(server.start())
    client = ServiceClient(server.url, timeout=60)
    try:
        yield server, client
    finally:
        client.close()
        live_loop(server.close())


class TestKeptAliveClient:
    def test_requests_share_one_connection(self, counting):
        server, client = counting
        for _ in range(5):
            assert client.healthy()
        assert client.status()["jobs"] == 1
        assert "repro_requests_total 0" in client.metrics()
        assert client.result("0" * 64) is None  # a 404 keeps the connection
        assert client.healthy()
        assert server.accepts == 1

    def test_reconnects_after_the_server_closes(self, counting):
        server, client = counting
        assert client.healthy()
        # a malformed request on the client's own connection: the server
        # answers 400 and closes it, and the client is not told
        sock = client._conn.sock
        sock.sendall(b"NONSENSE\r\n\r\n")
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ") and b"Connection: close" in reply
        assert client.healthy()
        assert server.accepts == 2
        assert client.status()["jobs"] == 1
        assert server.accepts == 2

    def test_error_replies_raise_http_error(self, counting):
        server, client = counting
        with pytest.raises(urllib.error.HTTPError) as info:
            client.submit(specs=[])
        assert info.value.code == 400
        assert info.value.headers["Content-Type"] == "application/json"
        assert "non-empty list" in json.loads(info.value.read())["error"]
        assert client.healthy()
        assert server.accepts == 1

    def test_threads_take_turns_on_one_connection(self, counting):
        server, client = counting
        failures = []

        def hammer():
            try:
                for _ in range(25):
                    assert client.status()["jobs"] == 1
                    assert client.healthy()
            except Exception as exc:  # reported below
                failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures
        assert server.accepts == 1

    def test_close_and_context_manager(self, counting):
        server, client = counting
        with ServiceClient(server.url, timeout=60) as other:
            assert other.healthy()
        assert other._conn.sock is None
        assert other.healthy()  # a closed client opens a new connection
        other.close()
        assert server.accepts == 2


def test_close_returns_with_an_idle_keepalive_client(live_loop, caplog):
    """An idle kept-alive connection must not hold up shutdown: close()
    closes it, returns promptly and logs nothing."""
    server = ServiceServer(Scheduler(cache=None))
    live_loop(server.start())
    where = urlsplit(server.url)
    with socket.create_connection((where.hostname, where.port), timeout=5) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        reply = b""
        while not reply.endswith(b"ok\n"):
            reply += sock.recv(65536)
        assert b"Connection: keep-alive" in reply
        live_loop(server.close(), timeout=2)
        assert sock.recv(65536) == b""  # the server closed the idle connection
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_close_lets_a_request_in_flight_finish(live_loop):
    """close() waits for a request in flight; its response is sent, with
    ``Connection: close``, and then the connection closes."""
    entered, gate = threading.Event(), threading.Event()

    class Slow(ServiceServer):
        async def _route(self, method, path, body):
            entered.set()
            await asyncio.get_running_loop().run_in_executor(None, gate.wait, 10)
            return await super()._route(method, path, body)

    server = Slow(Scheduler(cache=None))
    live_loop(server.start())
    where = urlsplit(server.url)
    with socket.create_connection((where.hostname, where.port), timeout=5) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert entered.wait(10)  # the request is in flight
        closing = threading.Thread(target=live_loop, args=(server.close(), 10))
        closing.start()
        time.sleep(0.2)
        assert closing.is_alive()  # waiting for the request in flight
        gate.set()
        closing.join(timeout=10)
        assert not closing.is_alive()
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 200 ") and reply.endswith(b"ok\n")
    assert b"Connection: close" in reply


async def _echo(request: dict) -> dict:
    return {"ok": True, "echo": request}


@pytest.mark.parametrize("stop", ["close", "cancel"])
def test_worker_listener_closes_an_idle_transport(live_loop, stop):
    """The worker agent's listener (``serve_socket``) must not wait for a
    kept-alive transport left idle after a call: ``close()`` plus
    ``wait_closed()`` (what ``perfbench/serve.py`` runs) and a cancelled
    ``serve_forever()`` in ``async with`` (what ``repro serve --worker``
    runs on Ctrl-C) return within 2 s, the idle connection is closed,
    and nothing reaches the loop's exception handler."""

    async def scenario():
        server, port = await serve_socket(_echo)
        transport = SocketTransport(port=port)
        try:
            assert (await transport.call({"op": "ping"}))["ok"]
            if stop == "close":
                server.close()
                await asyncio.wait_for(server.wait_closed(), 2)
            else:

                async def serve():
                    async with server:
                        await server.serve_forever()

                task = asyncio.create_task(serve())
                await asyncio.sleep(0.05)
                task.cancel()
                done, _ = await asyncio.wait({task}, timeout=2)
                assert done, "serve_forever() did not return within 2 s"
            # the idle connection was closed, and nothing listens any more
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(transport.call({"op": "ping"}), 2)
        finally:
            await transport.close()

    live_loop(scenario(), timeout=10)
