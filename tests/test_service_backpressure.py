"""Backpressure and priority lanes (PR 10 tentpole): the lane
semaphore's ordering guarantees, bounded admission (``Overloaded``),
and the HTTP surface -- 503 + ``Retry-After`` -- end to end."""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.runner import JobSpec, ResultCache
from repro.service import (
    InProcessTransport,
    Overloaded,
    Scheduler,
    ServiceClient,
    ServiceServer,
)
from repro.service.scheduler import _LaneSemaphore

pytestmark = pytest.mark.service

GOOD = JobSpec(program="fullconn", scale=0.05)


def _specs(n: int) -> list[JobSpec]:
    """n distinct cheap specs (distinct seeds -> distinct cache keys)."""
    return [JobSpec(program="fullconn", scale=0.05, seed=2000 + i) for i in range(n)]


class TestLaneSemaphore:
    def test_high_lane_overtakes_normal(self):
        async def scenario():
            sema = _LaneSemaphore(1)
            order = []

            async def use(tag: str, high: bool):
                await sema.acquire(high=high)
                order.append(tag)
                sema.release()

            await sema.acquire()  # occupy the only slot
            tasks = [asyncio.create_task(use("normal", False))]
            await asyncio.sleep(0)  # normal waiter queues first
            tasks.append(asyncio.create_task(use("high", True)))
            await asyncio.sleep(0)
            sema.release()
            await asyncio.gather(*tasks)
            return order

        assert asyncio.run(scenario()) == ["high", "normal"]

    def test_fifo_within_a_lane(self):
        async def scenario():
            sema = _LaneSemaphore(1)
            order = []

            async def use(tag: str):
                await sema.acquire()
                order.append(tag)
                sema.release()

            await sema.acquire()
            tasks = []
            for tag in ("a", "b", "c"):
                tasks.append(asyncio.create_task(use(tag)))
                await asyncio.sleep(0)
            sema.release()
            await asyncio.gather(*tasks)
            return order

        assert asyncio.run(scenario()) == ["a", "b", "c"]

    def test_cancelled_waiter_does_not_leak_the_slot(self):
        async def scenario():
            sema = _LaneSemaphore(1)
            await sema.acquire()
            waiter = asyncio.create_task(sema.acquire())
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            sema.release()
            # the slot must be reusable immediately
            await asyncio.wait_for(sema.acquire(), timeout=1)
            return True

        assert asyncio.run(scenario())


class _GatedWorker:
    """Transport handler that blocks each run until released."""

    def __init__(self) -> None:
        self.gate: asyncio.Event | None = None
        self.started: list[str] = []

    async def handle(self, request: dict) -> dict:
        if self.gate is None:
            self.gate = asyncio.Event()
        specs = request.get("specs") or [request["spec"]]
        for s in specs:
            self.started.append(f"{s['program']}{s['seed']}")
        await self.gate.wait()
        failure = {
            "ok": False,
            "kind": "error",
            "message": "gated test worker never computes",
            "traceback": "",
            "elapsed_s": 0.0,
        }
        if "specs" in request:  # run_shard framing
            return {
                "ok": True,
                "worker": "gated",
                "payloads": [dict(failure) for _ in specs],
            }
        return failure


class TestBoundedAdmission:
    def test_overloaded_raised_at_the_queue_bound(self):
        worker = _GatedWorker()
        scheduler = Scheduler(
            jobs=1,
            cache=None,
            trace_cache=False,
            transports=[InProcessTransport(worker.handle)],
            max_queue=1,
        )
        a, b, c = _specs(3)

        async def scenario():
            t1 = asyncio.create_task(scheduler.submit(a))  # takes the slot
            await asyncio.sleep(0.01)
            t2 = asyncio.create_task(scheduler.submit(b))  # queues (depth 1)
            await asyncio.sleep(0.01)
            with pytest.raises(Overloaded) as err:
                await scheduler.submit(c)  # would exceed max_queue=1
            worker.gate.set()
            await asyncio.gather(t1, t2)
            return err.value

        exc = asyncio.run(scenario())
        assert exc.retry_after >= 1.0
        assert "max_queue=1" in str(exc)
        assert scheduler.metrics.shed == 1

    def test_grid_admission_counts_the_whole_remainder(self):
        # a grid whose cold remainder alone exceeds the bound is shed
        # up front, before any shard is dispatched
        worker = _GatedWorker()
        scheduler = Scheduler(
            jobs=1,
            cache=None,
            trace_cache=False,
            transports=[InProcessTransport(worker.handle)],
            max_queue=2,
        )

        async def scenario():
            with pytest.raises(Overloaded):
                await scheduler.submit_grid(_specs(5))

        asyncio.run(scenario())
        assert scheduler.metrics.shed == 1
        assert scheduler.metrics.shards_dispatched == 0
        assert not scheduler._inflight  # nothing stranded

    def test_hits_are_never_shed(self, tmp_path):
        from repro.runner.executor import _execute
        from repro.runner.serialize import result_from_dict

        cache = ResultCache(tmp_path / "cache")
        payload = _execute(GOOD, None, None)
        cache.put(GOOD, result_from_dict(payload["result"]))
        scheduler = Scheduler(jobs=1, cache=cache, trace_cache=False, max_queue=1)
        # queue_depth 0 < bound, but force the edge: a warm key must be
        # served even when the queue is saturated, because hits never
        # reach admission
        scheduler.metrics.queue_depth = 5
        out = asyncio.run(scheduler.submit(GOOD))
        assert out.status == "hit"
        assert scheduler.metrics.shed == 0

    def test_priority_high_jumps_the_backlog(self):
        worker = _GatedWorker()
        scheduler = Scheduler(
            jobs=1,
            cache=None,
            trace_cache=False,
            transports=[InProcessTransport(worker.handle)],
        )
        a, b, c = _specs(3)

        async def scenario():
            t1 = asyncio.create_task(scheduler.submit(a))
            await asyncio.sleep(0.01)  # a reaches the worker and blocks
            t2 = asyncio.create_task(scheduler.submit(b, priority="normal"))
            await asyncio.sleep(0.01)
            t3 = asyncio.create_task(scheduler.submit(c, priority="high"))
            await asyncio.sleep(0.01)
            worker.gate.set()  # release everything
            await asyncio.gather(t1, t2, t3)
            return worker.started

        started = asyncio.run(scenario())
        # c (high) must start before b (normal) despite queuing later
        assert started.index(f"fullconn{c.seed}") < started.index(f"fullconn{b.seed}")
        assert scheduler.metrics.priority_high == 1


@pytest.fixture
def tiny_service(tmp_path):
    """A live HTTP service with max_queue=2 over a gated worker: two
    cold single-cell submits fill the bound, the third is shed."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    worker = _GatedWorker()
    scheduler = Scheduler(
        jobs=1,
        cache=ResultCache(tmp_path / "cache"),
        trace_cache=False,
        transports=[InProcessTransport(worker.handle)],
        max_queue=2,
    )
    server = ServiceServer(scheduler)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=30)
    try:
        yield server, worker, loop
    finally:
        if worker.gate is not None:
            loop.call_soon_threadsafe(worker.gate.set)
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


class TestHttp503:
    def test_shed_request_gets_503_with_retry_after(self, tiny_service):
        server, worker, loop = tiny_service
        a, b, c = _specs(3)

        def submit(spec):
            body = json.dumps({"specs": [spec.to_dict()]}).encode()
            req = urllib.request.Request(
                server.url + "/submit",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            return urllib.request.urlopen(req, timeout=60)

        # occupy the slot and the one queue place from the test thread
        t1 = threading.Thread(target=lambda: submit(a), daemon=True)
        t1.start()
        import time

        for _ in range(200):
            if worker.started:
                break
            time.sleep(0.01)
        t2 = threading.Thread(target=lambda: submit(b), daemon=True)
        t2.start()
        for _ in range(200):
            if server.scheduler.metrics.queue_depth >= 2:
                break
            time.sleep(0.01)

        with pytest.raises(urllib.error.HTTPError) as err:
            submit(c)
        assert err.value.code == 503
        retry_after = err.value.headers.get("Retry-After")
        assert retry_after is not None and int(retry_after) >= 1
        payload = json.loads(err.value.read())
        assert "shedding load" in payload["error"]
        assert payload["retry_after"] >= 1
        # the CLI's client raises the same error, headers and body intact
        with ServiceClient(server.url, timeout=60) as client:
            with pytest.raises(urllib.error.HTTPError) as err:
                client.submit(specs=[c])
        assert err.value.code == 503
        assert int(err.value.headers["Retry-After"]) >= 1
        assert "shedding load" in json.loads(err.value.read())["error"]
        loop.call_soon_threadsafe(worker.gate.set)
        t1.join(timeout=30)
        t2.join(timeout=30)

    def test_client_priority_field_reaches_the_scheduler(self, tiny_service):
        server, worker, loop = tiny_service
        (a,) = _specs(1)
        client = ServiceClient(server.url, timeout=60)
        done = threading.Event()

        def submit():
            client.submit(specs=[a], priority="high")
            done.set()

        threading.Thread(target=submit, daemon=True).start()
        import time

        for _ in range(200):
            if worker.started:
                break
            time.sleep(0.01)
        loop.call_soon_threadsafe(worker.gate.set)
        assert done.wait(timeout=30)
        client.close()
        assert server.scheduler.metrics.priority_high == 1

    def test_bad_priority_is_a_400(self, tiny_service):
        server, _worker, _loop = tiny_service
        (a,) = _specs(1)
        body = json.dumps({"specs": [a.to_dict()], "priority": "urgent"}).encode()
        req = urllib.request.Request(
            server.url + "/submit",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
