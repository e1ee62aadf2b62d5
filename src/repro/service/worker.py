"""Worker agent: executes cells and shards on behalf of a scheduler.

A worker agent is the far end of a :mod:`~repro.service.transport`.  It
understands six operations, each one message in, one out:

* ``{"op": "ping"}`` -- liveness probe; echoes worker identity.
* ``{"op": "run", "spec": {...}, "timeout": ...}`` -- execute one cell
  through the executor's worker function (process pool, so the
  in-worker SIGALRM timeout machinery applies) and return its payload.
* ``{"op": "run_shard", "specs": [...], ...}`` -- execute a planned
  shard through :func:`repro.runner.run_jobs` itself, reusing its
  timeout/retry machinery and local parallelism, and return one payload
  per spec in order.
* ``{"op": "has", "kind": "result"|"trace", "keys": [...]}`` -- batch
  existence probe against the worker's content-addressed stores.
* ``{"op": "fetch", "kind": "result"|"trace", "key": ...}`` -- serve a
  stored object by key: a result as one compact ``result-v1`` blob, a
  trace as its ``json`` sidecar blob plus its ``npy`` records blob.
* ``{"op": "stats"}`` -- the worker's cache/trace-cache counters.

Workers open the content-addressed stores by *root path*: co-located
workers share pages via the trace cache's mmap objects, and the
``fetch``/``has`` ops make every worker's store a replication peer --
give a worker ``peers`` (transports to other workers or a designated
store node) and it consults them before simulating, healing fetched
objects into its own stores.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor

from ..runner.cache import ResultCache
from ..runner.executor import JobFailure, _execute, run_jobs
from ..runner.serialize import RESULT_CODEC, result_to_bytes, result_to_dict
from ..runner.spec import JobSpec
from .stores import PeerStore
from .transport import Blob, serve_socket

__all__ = ["WorkerAgent", "serve_worker"]


class WorkerAgent:
    """Request handler for one worker process (see module docstring)."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | None = None,
        trace_cache=None,
        name: str | None = None,
        peers=None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = (
            cache if cache is None or isinstance(cache, ResultCache) else ResultCache(cache)
        )
        self.trace_cache = None
        if trace_cache is not False:  # the trace layer loads numpy
            from ..trace.cache import resolve_trace_cache

            self.trace_cache = resolve_trace_cache(trace_cache)
        self.name = name or f"worker-{os.getpid()}"
        self.peers = PeerStore(
            peers or (), cache=self.cache, trace_cache=self.trace_cache
        )
        self._pool: ProcessPoolExecutor | None = None

    def _worker_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    async def handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "pong", "worker": self.name, "jobs": self.jobs}
        if op == "run":
            return await self._run_one(request)
        if op == "run_shard":
            return await self._run_shard(request)
        if op == "has":
            return self._has(request)
        if op == "fetch":
            return self._fetch(request)
        if op == "stats":
            return {
                "ok": True,
                "worker": self.name,
                "cache": self.cache.stats_dict() if self.cache is not None else None,
                "trace_cache": (
                    self.trace_cache.stats_dict()
                    if self.trace_cache is not None
                    else None
                ),
            }
        return {"ok": False, "kind": "error", "message": f"unknown op {op!r}"}

    # ------------------------------------------------------------------
    # Store tier: this worker as a replication peer
    # ------------------------------------------------------------------
    def _has(self, request: dict) -> dict:
        kind = request.get("kind", "result")
        keys = request.get("keys", ())
        if kind == "result":
            store = self.cache
        elif kind == "trace":
            store = self.trace_cache
        else:
            return {"ok": False, "kind": "error", "message": f"unknown kind {kind!r}"}
        present = (
            [k for k in keys if store.has_key(k)] if store is not None else []
        )
        return {"ok": True, "worker": self.name, "present": present}

    def _fetch(self, request: dict) -> dict:
        kind = request.get("kind", "result")
        key = request.get("key", "")
        if kind == "result":
            result = self.cache.get_by_key(key) if self.cache is not None else None
            if result is None:
                return {"ok": False, "kind": "miss", "message": f"no result for {key}"}
            return {
                "ok": True,
                "key": key,
                "payload": Blob(result_to_bytes(result), RESULT_CODEC),
            }
        if kind == "trace":
            pair = (
                self.trace_cache.get_bytes(key)
                if self.trace_cache is not None
                else None
            )
            if pair is None:
                return {"ok": False, "kind": "miss", "message": f"no trace for {key}"}
            meta_bytes, data_bytes = pair
            return {
                "ok": True,
                "key": key,
                "meta": Blob(meta_bytes, "json"),
                "records": Blob(data_bytes, "npy"),
            }
        return {"ok": False, "kind": "error", "message": f"unknown kind {kind!r}"}

    async def _prefetch_trace(self, spec: JobSpec) -> None:
        """Replicate the spec's trace from peers before simulating, so
        the executor's trace-cache lookup becomes a local mmap hit."""
        if (
            not self.peers
            or self.trace_cache is None
            or not spec.program
            or spec.traceset is not None
        ):
            return
        from ..trace.cache import trace_key

        key = trace_key(spec.program, spec.scale, spec.seed, spec.n_procs)
        if not self.trace_cache.has_key(key):
            await self.peers.fetch_trace(key)

    # ------------------------------------------------------------------
    async def _run_one(self, request: dict) -> dict:
        spec = JobSpec.from_dict(request["spec"])
        timeout = request.get("timeout")
        if self.cache is not None:
            hit = self.cache.get(spec)
            if hit is not None:
                return {
                    "ok": True,
                    "result": result_to_dict(hit),
                    "cached": True,
                    "elapsed_s": 0.0,
                }
        if self.peers:
            remote = await self.peers.fetch_result(spec.cache_key(), spec=spec)
            if remote is not None:
                return {
                    "ok": True,
                    "result": result_to_dict(remote),
                    "cached": True,
                    "remote": True,
                    "elapsed_s": 0.0,
                }
        await self._prefetch_trace(spec)
        tcache_root = (
            str(self.trace_cache.root) if self.trace_cache is not None else None
        )
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(
                self._worker_pool(), _execute, spec, timeout, tcache_root
            )
        except Exception as exc:  # pool worker died
            return {
                "ok": False,
                "kind": "error",
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": "",
                "elapsed_s": 0.0,
            }
        if payload.get("ok") and self.cache is not None:
            from ..runner.serialize import result_from_dict

            self.cache.put(spec, result_from_dict(payload["result"]))
        return payload

    async def _run_shard(self, request: dict) -> dict:
        specs = [JobSpec.from_dict(d) for d in request.get("specs", ())]
        timeout = request.get("timeout")
        retries = int(request.get("retries", 0))
        remote = 0
        if self.peers and self.cache is not None:
            # warm the local store from peers first: any key a peer
            # already simulated is healed here and becomes a plain
            # cache hit inside run_jobs, never a re-simulation
            wanted = {
                spec.cache_key(): spec
                for spec in specs
                if not self.cache.has_key(spec.cache_key())
            }
            if wanted:
                present = await self.peers.has(wanted)
                for key in sorted(present):
                    if await self.peers.fetch_result(key, spec=wanted[key]):
                        remote += 1
            for spec in specs:
                await self._prefetch_trace(spec)
        # run_jobs spins its own scheduler in a worker thread; this
        # reuses the executor's timeout/retry/cache machinery wholesale
        batch = await asyncio.to_thread(
            run_jobs,
            specs,
            jobs=self.jobs,
            cache=self.cache,
            timeout=timeout,
            retries=retries,
            trace_cache=self.trace_cache if self.trace_cache is not None else False,
        )
        payloads = []
        for outcome in batch.outcomes:
            if isinstance(outcome, JobFailure):
                payloads.append(
                    {
                        "ok": False,
                        "kind": outcome.kind,
                        "message": outcome.message,
                        "traceback": outcome.traceback,
                        "attempts": outcome.attempts,
                        "elapsed_s": 0.0,
                    }
                )
            else:
                payloads.append(
                    {"ok": True, "result": result_to_dict(outcome), "elapsed_s": 0.0}
                )
        return {
            "ok": True,
            "worker": self.name,
            "payloads": payloads,
            "stats": {
                "executed": batch.stats.executed,
                "cached": batch.stats.cached,
                "failed": batch.stats.failed,
                "retries": batch.stats.retries,
                "remote": remote,
            },
        }


async def serve_worker(
    jobs: int = 1,
    cache=None,
    trace_cache=None,
    host: str = "127.0.0.1",
    port: int = 0,
    name: str | None = None,
    peers=None,
):
    """Boot a socket worker agent; returns ``(server, port, agent)``.

    ``peers`` are transports to sibling workers (or a store node) whose
    stores this worker may read through.
    """
    agent = WorkerAgent(
        jobs=jobs, cache=cache, trace_cache=trace_cache, name=name, peers=peers
    )
    server, bound_port = await serve_socket(agent.handle, host=host, port=port)
    return server, bound_port, agent
