"""The HTTP front end end-to-end over localhost: submit grids through
the scheduler, read metrics/status, and exercise the error paths —
using the same blocking :class:`ServiceClient` the CLI uses."""

import asyncio
import json
import socket
import sys
import threading
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.runner import JobSpec, ResultCache
from repro.runner import serialize
from repro.service import Scheduler, ServiceClient, ServiceServer

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
    try:
        yield server, ServiceClient(server.url, timeout=120)
    finally:
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


def test_import_leaves_analysis_and_http_client_unloaded():
    """``import repro.service`` (the cold grid pass imports it for
    ``grid_specs``) loads neither the analysis layer, which only
    ``StreamAggregator.table`` needs, nor urllib's HTTP client, which
    only ``ServiceClient`` needs."""
    import os
    import subprocess
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        "import sys, repro.service; "
        "print(sorted(m for m in ('repro.core', 'urllib.request', 'http.client') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "[]", out.stdout
