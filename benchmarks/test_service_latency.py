"""Warm-cell HTTP latency benchmark and perf-smoke gate for the sweep
service.

Not a paper artifact: this watches the service's serving overhead.  A
live HTTP front end (the same stdlib server ``repro serve`` boots) is
measured end-to-end over localhost: one cold ``POST /submit`` populates
the content-addressed store, then the *same* cell is submitted
repeatedly and each round trip is answered from the store without
touching the simulator.  The reported figure of merit is the warm
round-trip latency (client wall clock, request written to response
parsed) -- the price of putting the service between a user and an
already-computed result.

The "service" section of the committed ``BENCH_hotpath.json`` at the
repository root is the canonical baseline; this run's report is written
to the scratch file ``benchmarks/output/BENCH_service.json`` (not
tracked).  When ``REPRO_PERF_ENFORCE`` is set, warm throughput must not
regress more than 50% below the committed baseline (HTTP latency on a
shared CI runner jitters far more than the in-process hot loops, hence
the wider tolerance), a warm hit must stay decisively cheaper than
re-simulating the cell, and the scrape of ``GET /metrics`` must stay
well-formed.  Regenerate the baseline on a quiet machine with::

    PYTHONPATH=src python -m pytest benchmarks/test_service_latency.py -q

and copy the scratch report over the root file's "service" section.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import threading
import time
from pathlib import Path

import pytest

from repro.runner import JobSpec, ResultCache
from repro.service import Scheduler, ServiceClient, ServiceServer

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = Path(__file__).parent / "output"
BASELINE_PATH = ROOT / "BENCH_hotpath.json"

ENFORCE = bool(os.environ.get("REPRO_PERF_ENFORCE"))
#: HTTP round trips on shared runners jitter more than process_time
#: hot loops; the gate is correspondingly wider than their 25%
TOLERANCE = 0.50
#: a warm hit must beat re-simulating the cell by at least this factor
WARM_FLOOR = 2.0

#: the measured cell: small enough to simulate in well under a second,
#: real enough that serving it from the store is a visible win
CELL = JobSpec(program="fullconn", scale=0.05)
WARM_REQUESTS = 200

#: the store-tier cell: a full-scale result, fetched by key from a
#: remote worker store -- the payload whose size the binary frames and
#: the ``result-v1`` codec exist to shrink
FETCH_CELL = JobSpec(program="fullconn", scale=1.0)
FETCH_REQUESTS = 50
#: a fetch response frame must carry at least this many times fewer
#: bytes than the same result rendered as JSON; byte counts are
#: deterministic, so this gate is machine-independent
PAYLOAD_REDUCTION_FLOOR = 3.0


@pytest.fixture
def service(tmp_path):
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    scheduler = Scheduler(cache=ResultCache(tmp_path / "cache"))
    server = ServiceServer(scheduler)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=30)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


def test_warm_cell_http_latency(service):
    client = ServiceClient(service.url, timeout=120)
    baseline = (
        json.load(open(BASELINE_PATH)).get("service")
        if BASELINE_PATH.exists()
        else None
    )

    # cold: one real simulation through the full HTTP + scheduler path
    t0 = time.perf_counter()
    cold = client.submit(specs=[CELL])
    cold_seconds = time.perf_counter() - t0
    assert [r["status"] for r in cold["results"]] == ["ok"]

    # warm: the same cell, answered from the content-addressed store
    latencies = []
    for _ in range(WARM_REQUESTS):
        t0 = time.perf_counter()
        response = client.submit(specs=[CELL], include_results=False)
        latencies.append(time.perf_counter() - t0)
        assert response["results"][0]["status"] == "hit"

    latencies.sort()
    p50 = statistics.median(latencies)
    p99 = latencies[int(0.99 * (len(latencies) - 1))]
    warm_rps = 1.0 / p50 if p50 else 0.0

    # the scrape must be clean after sustained serving
    metrics_text = client.metrics()
    assert f"repro_requests_total {1 + WARM_REQUESTS}" in metrics_text
    assert f"repro_cache_hits_total {WARM_REQUESTS}" in metrics_text
    for line in metrics_text.strip().splitlines():
        assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2, line

    report = {
        "protocol": (
            f"wall clock over localhost HTTP, one cold POST /submit of "
            f"{CELL.label()} at scale {CELL.scale} then {WARM_REQUESTS} "
            "warm submits of the identical cell answered from the "
            "result store; latency is client-side round trip, "
            "warm_requests_per_sec is 1/p50"
        ),
        "cell": CELL.label(),
        "cold_seconds": round(cold_seconds, 4),
        "warm_p50_ms": round(1000 * p50, 3),
        "warm_p99_ms": round(1000 * p99, 3),
        "warm_mean_ms": round(1000 * statistics.fmean(latencies), 3),
        "warm_requests_per_sec": round(warm_rps, 1),
        "warm_speedup_vs_cold": round(cold_seconds / p50, 1) if p50 else 0.0,
    }

    OUTPUT_DIR.mkdir(exist_ok=True)
    with open(OUTPUT_DIR / "BENCH_service.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    # sanity floors that hold on any machine
    assert p50 < 0.25, f"warm round trip took {1000 * p50:.1f} ms"
    assert report["warm_speedup_vs_cold"] > 1, report

    if not ENFORCE:
        return

    problems = []
    if report["warm_speedup_vs_cold"] < WARM_FLOOR:
        problems.append(
            f"warm hit only {report['warm_speedup_vs_cold']}x faster than "
            f"re-simulating the cell (floor {WARM_FLOOR}x)"
        )
    if baseline is not None:
        base = baseline["warm_requests_per_sec"]
        if warm_rps < base * (1 - TOLERANCE):
            problems.append(
                f"warm throughput {report['warm_requests_per_sec']} req/s is "
                f">{TOLERANCE:.0%} below the committed baseline {base}"
            )
    else:
        problems.append(
            f"committed baseline {BASELINE_PATH} has no 'service' section; "
            "copy benchmarks/output/BENCH_service.json into it"
        )
    if problems:
        pytest.fail(
            "sweep-service latency regression:\n  " + "\n  ".join(problems),
            pytrace=False,
        )


def test_remote_warm_fetch_by_key(tmp_path):
    """Store-tier figure of merit: fetch a full-scale result by key
    from a remote worker's store.  Reports the fetch p50 and the
    on-wire response bytes next to the bytes of the same result
    rendered as compact JSON in-process; the wire must stay at least
    ``PAYLOAD_REDUCTION_FLOOR`` times smaller."""
    from repro.runner.executor import _execute
    from repro.runner.serialize import result_from_dict, result_to_dict
    from repro.service import ServiceMetrics, SocketTransport, serve_worker

    cache = ResultCache(tmp_path / "store")
    payload = _execute(FETCH_CELL, None, None)
    assert payload["ok"], payload
    result = result_from_dict(payload["result"])
    cache.put(FETCH_CELL, result)
    key = FETCH_CELL.cache_key()
    json_bytes = len(
        json.dumps(result_to_dict(result), separators=(",", ":")).encode()
    )
    baseline = (
        json.load(open(BASELINE_PATH)).get("service")
        if BASELINE_PATH.exists()
        else None
    )

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server, port, agent = asyncio.run_coroutine_threadsafe(
        serve_worker(cache=cache, trace_cache=False, name="bench"), loop
    ).result(timeout=60)

    request = {"op": "fetch", "kind": "result", "key": key}

    async def measure():
        metrics = ServiceMetrics()
        transport = SocketTransport("127.0.0.1", port, metrics=metrics)
        try:
            # connect and prove the key is warm before timing
            warm = await transport.call(dict(request))
            assert warm["ok"], warm
            base_bytes = metrics.bytes_received
            latencies = []
            for _ in range(FETCH_REQUESTS):
                t0 = time.perf_counter()
                response = await transport.call(dict(request))
                latencies.append(time.perf_counter() - t0)
                assert response["ok"]
            per_fetch = (metrics.bytes_received - base_bytes) / FETCH_REQUESTS
            return sorted(latencies), per_fetch, metrics
        finally:
            await transport.close()

    try:
        latencies, frame_bytes, metrics = asyncio.run(measure())
    finally:

        async def teardown():
            server.close()
            await server.wait_closed()
            agent.close()

        asyncio.run_coroutine_threadsafe(teardown(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()

    # one frame per fetch: no handshake, no silent reconnect
    assert metrics.frames_binary == 1 + FETCH_REQUESTS

    reduction = json_bytes / frame_bytes
    p50 = statistics.median(latencies)
    report = {
        "fetch_protocol": (
            f"wall clock over a localhost socket, {FETCH_REQUESTS} warm "
            f"'fetch' ops of the {FETCH_CELL.label()} scale-"
            f"{FETCH_CELL.scale} result by cache key against a live "
            "worker store; fetch_bytes_binary is the on-wire response "
            "frame size, fetch_bytes_json the same result rendered as "
            "compact JSON in-process (result_to_dict)"
        ),
        "fetch_cell": f"{FETCH_CELL.label()} @ scale {FETCH_CELL.scale}",
        "fetch_p50_ms": round(1000 * p50, 3),
        "fetch_p99_ms": round(1000 * latencies[int(0.99 * (len(latencies) - 1))], 3),
        "fetch_bytes_binary": round(frame_bytes, 1),
        "fetch_bytes_json": json_bytes,
        "payload_reduction_vs_json": round(reduction, 2),
    }

    OUTPUT_DIR.mkdir(exist_ok=True)
    scratch = OUTPUT_DIR / "BENCH_service.json"
    merged = json.load(open(scratch)) if scratch.exists() else {}
    merged.update(report)
    with open(scratch, "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
        fh.write("\n")

    # deterministic floors: byte counts do not jitter, so the payload
    # gate holds on any machine; the latency floor is a loose sanity
    assert reduction >= PAYLOAD_REDUCTION_FLOOR, (
        f"fetch response frame only {reduction:.2f}x smaller than the "
        f"result's JSON rendering ({frame_bytes:.0f} vs {json_bytes} B, "
        f"floor {PAYLOAD_REDUCTION_FLOOR}x)"
    )
    assert p50 < 0.25, f"warm remote fetch took {1000 * p50:.1f} ms"

    if not ENFORCE:
        return

    problems = []
    if baseline is None or "payload_reduction_vs_json" not in baseline:
        problems.append(
            f"committed baseline {BASELINE_PATH} has no store-tier keys; "
            "copy benchmarks/output/BENCH_service.json into its "
            "'service' section"
        )
    else:
        base_bytes = baseline["fetch_bytes_binary"]
        if frame_bytes > base_bytes * 1.10:
            problems.append(
                f"binary fetch response grew to {frame_bytes:.0f} B "
                f"(committed {base_bytes:.0f} B +10%): the wire format "
                "got fatter"
            )
    if problems:
        pytest.fail(
            "store-tier transport regression:\n  " + "\n  ".join(problems),
            pytrace=False,
        )
