"""Transports and the worker agent: in-process dispatch through the
frame codec, the binary-framed socket, reconnect semantics, and the
four worker operations (ping / run / run_shard / stats)."""

import asyncio

import pytest

from repro.core.experiment import run_experiment
from repro.runner import JobSpec, ResultCache
from repro.service import (
    Blob,
    FrameTooLarge,
    InProcessTransport,
    Scheduler,
    SocketTransport,
    WorkerAgent,
    serve_socket,
    serve_worker,
)
from repro.service import transport as transport_mod
from repro.service.transport import read_frame

pytestmark = pytest.mark.service

GOOD = JobSpec(program="fullconn", scale=0.05)
FAULTY = JobSpec(program="does-not-exist", scale=0.05)


class TestInProcessTransport:
    def test_round_trips_through_the_frame_codec(self):
        blob = Blob(b"\x00\xff", "npy")

        async def handler(request):
            # the handler reads what a socket peer would: tuples arrive
            # as lists (the frame's meta is JSON), blobs as blobs
            assert request == {"op": "echo", "values": [3, 4], "blob": blob}
            return {"ok": True, "echo": request["values"], "pair": (1, 2), "blob": blob}

        async def scenario():
            t = InProcessTransport(handler)
            return await t.call({"op": "echo", "values": (3, 4), "blob": blob})

        response = asyncio.run(scenario())
        assert response == {"ok": True, "echo": [3, 4], "pair": [1, 2], "blob": blob}

    def test_refuses_what_a_socket_would_refuse(self, monkeypatch):
        async def handler(request):  # pragma: no cover - never reached
            return {"ok": True}

        monkeypatch.setattr(transport_mod, "MAX_FRAME_BYTES", 64)
        t = InProcessTransport(handler)
        with pytest.raises(FrameTooLarge, match="key='k'"):
            asyncio.run(t.call({"key": "k", "x": "y" * 100}))


class TestSocketTransport:
    def test_ping_over_localhost(self):
        async def scenario():
            server, port, agent = await serve_worker(name="w0")
            transport = SocketTransport("127.0.0.1", port)
            try:
                return await transport.call({"op": "ping"})
            finally:
                await transport.close()
                server.close()
                await server.wait_closed()
                agent.close()

        response = asyncio.run(scenario())
        assert response == {"ok": True, "op": "pong", "worker": "w0", "jobs": 1}

    def test_from_address_forms(self):
        t = SocketTransport.from_address("10.0.0.7:8700")
        assert (t.host, t.port) == ("10.0.0.7", 8700)
        t = SocketTransport.from_address(":8700")
        assert (t.host, t.port) == ("127.0.0.1", 8700)

    def test_reconnects_once_after_server_restart(self):
        async def handler(request):
            return {"ok": True, "echo": request["n"]}

        async def scenario():
            server, port = await serve_socket(handler)
            transport = SocketTransport("127.0.0.1", port)
            first = await transport.call({"n": 1})
            # bounce the server on the same port: the established
            # connection goes stale but the address stays valid
            server.close()
            await server.wait_closed()
            server, port2 = await serve_socket(handler, port=port)
            assert port2 == port
            second = await transport.call({"n": 2})
            await transport.close()
            server.close()
            await server.wait_closed()
            return first, second

        first, second = asyncio.run(scenario())
        assert first == {"ok": True, "echo": 1}
        assert second == {"ok": True, "echo": 2}

    def test_malformed_frame_reported_not_fatal(self):
        async def handler(request):
            return {"ok": True, "echo": request["n"]}

        async def scenario():
            server, port = await serve_socket(handler)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not a transport frame\n")
            await writer.drain()
            reply = await read_frame(reader)
            hangup = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            # the server itself keeps serving fresh connections
            transport = SocketTransport("127.0.0.1", port)
            after = await transport.call({"n": 5})
            await transport.close()
            server.close()
            await server.wait_closed()
            return reply, hangup, after

        reply, hangup, after = asyncio.run(scenario())
        response, _ = reply
        assert response["ok"] is False
        assert "not a transport frame" in response["message"]
        assert hangup is None
        assert after == {"ok": True, "echo": 5}


class TestWorkerAgent:
    def test_run_executes_and_caches(self, tmp_path):
        agent = WorkerAgent(cache=ResultCache(tmp_path / "c"))

        async def scenario():
            first = await agent.handle(
                {"op": "run", "spec": GOOD.to_dict(), "timeout": None}
            )
            second = await agent.handle(
                {"op": "run", "spec": GOOD.to_dict(), "timeout": None}
            )
            return first, second

        try:
            first, second = asyncio.run(scenario())
        finally:
            agent.close()
        assert first["ok"] and "cached" not in first
        assert second["ok"] and second["cached"] is True
        assert second["result"] == first["result"]

    def test_run_reports_failure_payload(self):
        agent = WorkerAgent()
        try:
            payload = asyncio.run(
                agent.handle({"op": "run", "spec": FAULTY.to_dict(), "timeout": None})
            )
        finally:
            agent.close()
        assert payload["ok"] is False
        assert payload["kind"] == "error"
        assert payload["message"]

    def test_run_shard_returns_ordered_payloads(self, tmp_path):
        agent = WorkerAgent(cache=ResultCache(tmp_path / "c"))
        specs = [GOOD, FAULTY, JobSpec(program="qsort", scale=0.05)]
        try:
            response = asyncio.run(
                agent.handle(
                    {"op": "run_shard", "specs": [s.to_dict() for s in specs]}
                )
            )
        finally:
            agent.close()
        assert response["ok"] is True
        assert [p["ok"] for p in response["payloads"]] == [True, False, True]
        assert response["stats"]["executed"] == 2
        assert response["stats"]["failed"] == 1

    def test_stats_and_unknown_op(self, tmp_path):
        agent = WorkerAgent(cache=ResultCache(tmp_path / "c"), name="w1")
        stats = asyncio.run(agent.handle({"op": "stats"}))
        assert stats["ok"] and stats["worker"] == "w1"
        assert stats["cache"]["count"] == 0
        bad = asyncio.run(agent.handle({"op": "nope"}))
        assert bad["ok"] is False and "unknown op" in bad["message"]


class TestSchedulerOverTransports:
    def test_remote_grid_matches_local_results(self, tmp_path):
        """A sharded remote sweep returns the same results the local
        simulator produces, and populates the front cache."""
        specs = [GOOD, JobSpec(program="qsort", scale=0.05)]

        async def scenario():
            server, port, agent = await serve_worker(
                cache=ResultCache(tmp_path / "worker")
            )
            transport = SocketTransport("127.0.0.1", port)
            sched = Scheduler(
                cache=ResultCache(tmp_path / "front"), transports=[transport]
            )
            try:
                outs = await sched.submit_grid(specs)
            finally:
                await transport.close()
                server.close()
                await server.wait_closed()
                agent.close()
                sched.close()
            return sched, outs

        sched, outs = asyncio.run(scenario())
        assert [o.status for o in outs] == ["ok", "ok"]
        assert sched.metrics.shards_dispatched >= 1
        for spec, out in zip(specs, outs):
            local = run_experiment(spec.program, scale=0.05)
            assert out.outcome.run_time == local.run_time
        # executed results were folded into the front-end store
        assert sched.cache.stats.puts == 2
