"""Asyncio cell scheduler: content-addressed lookup, in-flight
deduplication, and pooled execution.

One :class:`Scheduler` fronts the two content-addressed stores
(:class:`~repro.runner.cache.ResultCache` for results,
:class:`~repro.trace.cache.TraceCache` for traces) with the serving
discipline the ROADMAP's "sharded sweep service" item asks for:

1. **Cache first.**  Every submitted cell is a
   :class:`~repro.runner.spec.JobSpec`, so its SHA-256
   :meth:`~repro.runner.spec.JobSpec.cache_key` is a true content
   address; a warm cell is answered straight from the store without
   touching the simulator.
2. **One in-flight job per key.**  A cold cell is computed exactly once
   no matter how many requesters ask for it concurrently: the first
   request creates the job, later requesters *attach* to the same
   future (``metrics.dedup_attached``) and all of them receive the
   identical result object.
3. **Pooled execution with budgets.**  Misses run on a worker backend --
   inline (the byte-identical serial path), a local
   :class:`~concurrent.futures.ProcessPoolExecutor`, or remote worker
   agents behind a :mod:`~repro.service.transport` -- reusing the
   executor's in-worker timeout machinery, plus scheduler-side bounded
   retries with exponential backoff and a per-job wall-clock deadline
   budget across attempts.

The synchronous facade :func:`run_batch` is what
:func:`repro.runner.run_jobs` (and through it ``run_suite`` and the
sweeps) delegates to; it preserves the executor's manifest/resume
bookkeeping and, for ``jobs=1``, executes specs strictly in submission
order so the serial path stays byte-identical.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..runner.cache import ResultCache
from ..runner.executor import (
    BatchResult,
    BatchStats,
    JobFailure,
    _execute,
)
from ..runner.manifest import append_record, load_completed
from ..runner.serialize import result_from_dict, result_from_json
from ..runner.spec import JobSpec
from .metrics import ServiceMetrics
from .stores import PeerStore

__all__ = ["CellOutcome", "Overloaded", "Scheduler", "run_batch"]


class Overloaded(RuntimeError):
    """Raised when admission would exceed the bounded queue depth.

    ``retry_after`` is the scheduler's drain-time estimate in seconds --
    the HTTP front end surfaces it as a 503 ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _LaneSemaphore:
    """Counting semaphore with a high-priority waiter lane.

    FIFO within each lane; every release wakes the high lane first, so
    interactive requests overtake bulk backfill without starving it of
    already-held slots.  Cancellation-safe: a waiter cancelled in the
    same tick it was woken passes its slot on instead of leaking it.
    """

    def __init__(self, slots: int) -> None:
        self._slots = max(1, int(slots))
        self._high: deque[asyncio.Future] = deque()
        self._normal: deque[asyncio.Future] = deque()

    def _wake_next(self) -> bool:
        for lane in (self._high, self._normal):
            while lane:
                waiter = lane.popleft()
                if not waiter.done():
                    waiter.set_result(None)  # slot ownership transfers
                    return True
        return False

    async def acquire(self, high: bool = False) -> None:
        if self._slots > 0 and not self._high and not self._normal:
            self._slots -= 1
            return
        waiter = asyncio.get_running_loop().create_future()
        (self._high if high else self._normal).append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                self.release()
            raise

    def release(self) -> None:
        if not self._wake_next():
            self._slots += 1


@dataclass
class CellOutcome:
    """What happened to one submitted cell.

    ``status`` is one of ``"hit"`` (answered from the result cache),
    ``"remote"`` (fetched from a peer store and healed locally),
    ``"ok"`` (simulated by this request), ``"attached"`` (joined an
    identical in-flight job and shares its result), or ``"failed"``.

    A hit carries the store's verified canonical JSON in
    ``result_json`` and decodes it into :attr:`outcome` only when that
    is first read, so a hit served over HTTP is never decoded.
    """

    spec: JobSpec
    key: str
    status: str
    _outcome: object = None  # RunResult | JobFailure; None until a hit decodes
    attempts: int = 0
    elapsed_s: float = 0.0
    #: serialized result payload (present when this request executed)
    result_dict: dict | None = field(default=None, repr=False)
    #: stored canonical JSON of a hit (see ResultCache.get_bytes)
    result_json: bytes | None = field(default=None, repr=False)

    @property
    def outcome(self):
        """The :class:`RunResult` or :class:`JobFailure`."""
        if self._outcome is None and self.result_json is not None:
            self._outcome = result_from_json(self.result_json)
        return self._outcome

    @property
    def ok(self) -> bool:
        # an undecoded hit is ok; an attached cell whose owner failed
        # carries the owner's JobFailure, so the status alone cannot say
        return not isinstance(self._outcome, JobFailure)

    def manifest_record(self) -> dict:
        """The executor-manifest-schema record for this outcome."""
        if not self.ok:
            status = "failed"  # also an attached cell whose owner failed
        elif self.status in ("hit", "attached", "remote"):
            status = "cached"
        else:
            status = self.status
        rec = {
            "key": self.key,
            "label": self.spec.label(),
            "status": status,
            "spec": self.spec.to_dict(),
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 6),
        }
        if self.status == "ok" and self.result_dict is not None:
            rec["result"] = self.result_dict
        elif status == "failed":
            f = self.outcome
            rec["error"] = {
                "kind": f.kind,
                "message": f.message,
                "traceback": f.traceback,
            }
        return rec


def _normalize_cache(cache) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


class Scheduler:
    """Deduplicating cell scheduler over the content-addressed stores.

    Parameters
    ----------
    jobs:
        Concurrent execution slots.  ``1`` with ``inline=True`` (the
        default for ``jobs=1``) runs misses synchronously in submission
        order -- the executor's byte-identical serial path.
    cache / trace_cache:
        The content-addressed stores (handles, directories, or ``None``).
    timeout:
        Per-attempt wall-clock limit, enforced *inside* the worker.
    retries:
        Extra attempts granted to a failing job.
    backoff:
        Base of the exponential backoff between attempts: attempt *n*
        retries after ``min(backoff * 2**(n-1), backoff_cap)`` seconds.
        ``0`` (default) retries immediately, like the classic executor.
    deadline:
        Per-job wall-clock budget across all attempts and backoff
        sleeps; once exceeded the job fails with kind ``"deadline"``
        instead of retrying further.
    transports:
        Remote worker agents (see :mod:`repro.service.transport` and
        ``repro serve --worker``).  When given, misses are dispatched
        over the wire instead of to the local process pool -- multi-host
        execution as a config change.
    peers:
        Read-through store peers (worker agents or a designated store
        node) consulted *after* the local cache misses and *before*
        simulating; fetched objects self-heal into the local stores
        (see :class:`~repro.service.stores.PeerStore`).
    max_queue:
        Bounded admission: a miss that would push the queue-depth gauge
        past this bound is refused with :class:`Overloaded` (the front
        end's 503 + Retry-After) instead of queuing without bound.
        ``None`` (default, and what ``run_batch`` uses) never sheds.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | Path | None = None,
        trace_cache=None,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.0,
        backoff_cap: float = 30.0,
        deadline: float | None = None,
        inline: bool | None = None,
        transports: list | None = None,
        peers: list | None = None,
        max_queue: int | None = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = _normalize_cache(cache)
        self.trace_cache = None
        if trace_cache is not False:  # the trace layer loads numpy
            from ..trace.cache import resolve_trace_cache

            self.trace_cache = resolve_trace_cache(trace_cache)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.backoff_cap = float(backoff_cap)
        self.deadline = deadline
        self.inline = (self.jobs == 1) if inline is None else bool(inline)
        self.transports = list(transports) if transports else []
        self.max_queue = None if max_queue is None else max(1, int(max_queue))
        self.metrics = ServiceMetrics()
        self.peer_transports = list(peers) if peers else []
        self._peers = (
            PeerStore(
                self.peer_transports,
                cache=self.cache,
                trace_cache=self.trace_cache,
                metrics=self.metrics,
            )
            if self.peer_transports
            else None
        )
        # transports without their own metrics sink report payload
        # bytes and frame counts into this scheduler's
        for t in self.transports + self.peer_transports:
            if getattr(t, "metrics", False) is None:
                t.metrics = self.metrics
        self._inflight: dict[str, asyncio.Future] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._sema: _LaneSemaphore | None = None
        self._next_transport = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _semaphore(self) -> _LaneSemaphore:
        if self._sema is None:
            self._sema = _LaneSemaphore(self.jobs)
        return self._sema

    def _worker_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _retry_after(self, extra: int = 1) -> float:
        """Drain-time estimate for a shed request's Retry-After."""
        mean = self.metrics.stage_latency["execute"].mean_seconds
        backlog = self.metrics.queue_depth + max(1, extra)
        return max(1.0, round(mean * backlog / self.jobs, 1))

    def _check_admission(self, extra: int = 1) -> None:
        if (
            self.max_queue is not None
            and self.metrics.queue_depth + max(0, extra - 1) >= self.max_queue
        ):
            self.metrics.count("shed")
            raise Overloaded(
                f"queue depth {self.metrics.queue_depth} at the "
                f"max_queue={self.max_queue} bound; shedding load",
                retry_after=self._retry_after(extra),
            )

    def _lookup(self, spec: JobSpec, high: bool) -> tuple[str, float, CellOutcome | None]:
        """Every cell's first step, synchronous: key it, count it, read the
        store.  Returns ``(key, t0, hit)``, ``hit`` None on a miss."""
        t0 = time.perf_counter()
        key = spec.cache_key()
        self.metrics.count("requests")
        if high:
            self.metrics.count("priority_high")
        body = self.cache.get_bytes(key) if self.cache is not None else None
        self.metrics.observe("lookup", time.perf_counter() - t0)
        if body is None:
            self.metrics.count("cache_misses")
            return key, t0, None
        self.metrics.count("cache_hits")
        hit = CellOutcome(
            spec, key, "hit", result_json=body, elapsed_s=time.perf_counter() - t0
        )
        self.metrics.observe("total", hit.elapsed_s)
        return key, t0, hit

    def _attached(self, spec: JobSpec, key: str, shared: CellOutcome, t0: float):
        """The outcome of a cell that waited for ``shared``, its key's owner."""
        now = time.perf_counter()
        self.metrics.observe("wait", now - t0)
        out = CellOutcome(spec, key, "attached", shared.outcome, elapsed_s=now - t0)
        self.metrics.observe("total", out.elapsed_s)
        return out

    async def submit(self, spec: JobSpec, priority: str = "normal") -> CellOutcome:
        """Serve one cell: cache hit, peer fetch, dedup attach, or compute.

        ``priority="high"`` admits the request on the high lane: it
        overtakes queued normal-lane work at the execution semaphore.
        Hits, peer fetches, and attaches are unaffected -- they never
        queue and are never shed.
        """
        high = priority == "high"
        key, t0, hit = self._lookup(spec, high)
        return hit if hit is not None else await self._serve_miss(spec, key, t0, high)

    async def _serve_miss(self, spec: JobSpec, key: str, t0: float, high: bool):
        """Serve a miss: attach to its key in flight, fetch, or execute."""
        fut = self._inflight.get(key)
        if fut is not None:
            self.metrics.count("dedup_attached")
            return self._attached(spec, key, await asyncio.shield(fut), t0)

        if self._peers is not None:
            remote = await self._peers.fetch_result(key, spec=spec)
            if remote is not None:
                out = CellOutcome(spec, key, "remote", remote)
                out.elapsed_s = time.perf_counter() - t0
                self.metrics.observe("total", out.elapsed_s)
                return out

        self._check_admission()
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._inflight[key] = fut
        self.metrics.count("in_flight")
        self.metrics.count("queue_depth")
        queued = True
        sema = self._semaphore()
        try:
            t_wait = time.perf_counter()
            await sema.acquire(high=high)
            try:
                self.metrics.count("queue_depth", -1)
                queued = False
                self.metrics.observe("wait", time.perf_counter() - t_wait)
                t_exec = time.perf_counter()
                payload, attempts = await self._attempt_loop(spec)
                self.metrics.observe("execute", time.perf_counter() - t_exec)
            finally:
                sema.release()
            out = self._conclude(spec, key, payload, attempts)
            out.elapsed_s = time.perf_counter() - t0
            self.metrics.observe("total", out.elapsed_s)
            fut.set_result(out)
            return out
        except BaseException:
            if queued:
                self.metrics.count("queue_depth", -1)
            if not fut.done():
                fut.cancel()
            raise
        finally:
            self._inflight.pop(key, None)
            self.metrics.count("in_flight", -1)

    async def submit_many(self, specs, priority: str = "normal") -> list[CellOutcome]:
        """Serve a batch of cells.  One synchronous lookup pass settles
        every hit; the misses are then served concurrently, and a key
        repeated in the batch attaches to its first occurrence, so
        duplicate specs cost one simulation."""
        specs = list(specs)
        high = priority == "high"
        outs, owners, repeats = [], {}, []  # owners: miss key -> (index, t0)
        for i, spec in enumerate(specs):
            key, t0, hit = self._lookup(spec, high)
            outs.append(hit)
            if hit is None and key in owners:
                self.metrics.count("dedup_attached")
                repeats.append((i, key, t0))
            elif hit is None:
                owners[key] = i, t0
        if owners:
            misses = (self._serve_miss(specs[i], k, t0, high) for k, (i, t0) in owners.items())
            for (i, _t0), out in zip(owners.values(), await asyncio.gather(*misses)):
                outs[i] = out
        for i, key, t0 in repeats:
            outs[i] = self._attached(specs[i], key, outs[owners[key][0]], t0)
        return outs

    async def submit_grid(
        self, specs, n_shards: int | None = None, priority: str = "normal"
    ) -> list[CellOutcome]:
        """Serve a sweep grid, sharding cold cells across the remote
        workers.

        Without transports this is :meth:`submit_many` -- a local
        process pool is already a self-balancing work queue.  With
        transports: hits and duplicate submissions are answered exactly
        as in :meth:`submit`; cold unique cells are probed against the
        peer store tier (one batched ``has`` per peer, then fetch +
        local heal); whatever remains is split into cost-balanced
        shards (:func:`repro.service.planner.plan_shards`, one
        ``run_shard`` round trip per shard).  A shard whose worker dies
        mid-run is re-planned onto the surviving workers
        (:func:`repro.service.planner.replan`) -- its cells fail only
        when no worker survives.
        """
        specs = list(specs)
        if not self.transports:
            return await self.submit_many(specs, priority=priority)

        loop = asyncio.get_running_loop()
        keys, outs = [], []
        to_compute: list[int] = []  # indices owning a new in-flight key
        owned: dict[str, asyncio.Future] = {}
        attached: list[tuple[int, asyncio.Future, float]] = []
        high = priority == "high"
        for i, spec in enumerate(specs):
            key, t0, hit = self._lookup(spec, high)
            keys.append(key)
            outs.append(hit)
            if hit is not None:
                continue
            fut = self._inflight.get(key)
            if fut is not None:
                self.metrics.count("dedup_attached")
                attached.append((i, fut, t0))
                continue
            fut = loop.create_future()
            self._inflight[key] = fut
            self.metrics.count("in_flight")
            owned[key] = fut
            to_compute.append(i)

        #: indices counted in the queue-depth gauge while dispatched --
        #: concurrent grid submissions shed against each other's backlog
        queued: set[int] = set()

        def settle(i: int, out: CellOutcome) -> None:
            if i in queued:
                queued.discard(i)
                self.metrics.count("queue_depth", -1)
            self.metrics.observe("total", out.elapsed_s)
            outs[i] = out
            fut = owned.pop(keys[i], None)
            self._inflight.pop(keys[i], None)
            self.metrics.count("in_flight", -1)
            if fut is not None and not fut.done():
                fut.set_result(out)

        try:
            # ---- store tier: serve what any peer already holds --------
            if self._peers is not None and to_compute:
                t_peer = time.perf_counter()
                want = {keys[i]: i for i in to_compute}
                present = await self._peers.has(want)
                for key in sorted(present):
                    i = want[key]
                    remote = await self._peers.fetch_result(key, spec=specs[i])
                    if remote is None:
                        continue  # peer died between has and fetch
                    settle(
                        i,
                        CellOutcome(
                            specs[i],
                            key,
                            "remote",
                            remote,
                            elapsed_s=time.perf_counter() - t_peer,
                        ),
                    )
                to_compute = [i for i in to_compute if outs[i] is None]

            # ---- bounded admission for the cold remainder -------------
            if to_compute:
                self._check_admission(len(to_compute))
                queued.update(to_compute)
                self.metrics.count("queue_depth", len(to_compute))

            # ---- dispatch, re-planning around dead workers ------------
            await self._dispatch_shards(specs, keys, to_compute, n_shards, settle)
        finally:
            if queued:  # a cancelled dispatch must not wedge the gauge
                self.metrics.count("queue_depth", -len(queued))
                queued.clear()
            # a cancelled dispatch must not strand attachers forever
            for key, fut in owned.items():
                self._inflight.pop(key, None)
                self.metrics.count("in_flight", -1)
                if not fut.done():
                    fut.cancel()
            owned.clear()

        for i, fut, t0 in attached:
            shared = await asyncio.shield(fut)
            outs[i] = self._attached(specs[i], keys[i], shared, t0)
        return outs

    async def _dispatch_shards(self, specs, keys, to_compute, n_shards, settle) -> None:
        """Shard ``to_compute`` across transports; on a dead worker,
        re-plan its cells onto the survivors until none remain."""
        from .planner import replan

        async def dispatch(shard, transport):
            self.metrics.count("shards_dispatched")
            t_exec = time.perf_counter()
            request = {
                "op": "run_shard",
                "specs": [s.to_dict() for s in shard.specs],
                "timeout": self.timeout,
                "retries": self.retries,
            }
            try:
                response = await transport.call(request)
                payloads = response.get("payloads") if response.get("ok") else None
                if payloads is None or len(payloads) != len(shard.specs):
                    raise ValueError(
                        str(response.get("message", "malformed shard response"))
                    )
            except Exception as exc:
                return shard, transport, exc, time.perf_counter() - t_exec
            return shard, transport, payloads, time.perf_counter() - t_exec

        def settle_cell(i: int, payload: dict, elapsed: float) -> None:
            out = self._conclude(
                specs[i], keys[i], payload, int(payload.get("attempts", 1))
            )
            out.elapsed_s = float(payload.get("elapsed_s", 0.0)) or elapsed
            settle(i, out)

        pending = [(i, specs[i]) for i in to_compute]
        alive = list(self.transports)
        last_error = "no workers configured"
        rounds = 0
        while pending and alive:
            shards = replan(pending, n_shards or len(alive))
            if rounds:
                self.metrics.count("shards_replanned", len(shards))
            results = await asyncio.gather(
                *(
                    dispatch(shard, alive[n % len(alive)])
                    for n, shard in enumerate(shards)
                )
            )
            stranded: list[tuple[int, JobSpec]] = []
            dead: set[int] = set()
            for shard, transport, payloads, elapsed in results:
                if isinstance(payloads, Exception):
                    # worker died mid-shard: drop it, keep its cells
                    self.metrics.count("worker_failures")
                    dead.add(id(transport))
                    last_error = f"{type(payloads).__name__}: {payloads}"
                    stranded.extend((i, specs[i]) for i in shard.indices)
                    continue
                self.metrics.observe("execute", elapsed)
                for i, payload in zip(shard.indices, payloads):
                    settle_cell(i, payload, elapsed)
            alive = [t for t in alive if id(t) not in dead]
            pending = stranded
            rounds += 1
        for i, _spec in pending:  # no surviving workers: fail the rest
            settle_cell(
                i,
                {
                    "ok": False,
                    "kind": "error",
                    "message": f"transport: {last_error} (no surviving workers)",
                    "traceback": "",
                    "elapsed_s": 0.0,
                },
                0.0,
            )

    # ------------------------------------------------------------------
    # Execution backends
    # ------------------------------------------------------------------
    async def _attempt_loop(self, spec: JobSpec) -> tuple[dict, int]:
        """Run ``spec`` with bounded retries, exponential backoff, and
        the per-job deadline budget; returns (payload, attempts)."""
        start = time.monotonic()
        attempt = 1
        while True:
            payload = await self._run_once(spec)
            if payload["ok"] or attempt > self.retries:
                return payload, attempt
            delay = (
                min(self.backoff * 2 ** (attempt - 1), self.backoff_cap)
                if self.backoff
                else 0.0
            )
            if (
                self.deadline is not None
                and time.monotonic() - start + delay >= self.deadline
            ):
                self.metrics.count("deadline_exceeded")
                payload = dict(payload)
                payload["kind"] = "deadline"
                payload["message"] = (
                    f"gave up after {attempt} attempt(s): deadline budget of "
                    f"{self.deadline:g}s exhausted (last error: "
                    f"{payload.get('message', '')})"
                )
                return payload, attempt
            if delay:
                self.metrics.backoff_seconds += delay
                await asyncio.sleep(delay)
            attempt += 1
            self.metrics.count("retries")

    async def _run_once(self, spec: JobSpec) -> dict:
        if self.transports:
            return await self._run_remote(spec)
        if self.inline:
            # the byte-identical serial path: same call the classic
            # serial executor made, in submission order, in-process
            return _execute(spec, self.timeout, self.trace_cache)
        loop = asyncio.get_running_loop()
        job_spec = spec
        if spec.program and spec.traceset is not None:
            # don't pickle megabytes of trace into the pool queue; the
            # worker regenerates or memory-maps it from the trace cache
            job_spec = replace(spec, traceset=None)
        tcache_root = (
            str(self.trace_cache.root) if self.trace_cache is not None else None
        )
        try:
            return await loop.run_in_executor(
                self._worker_pool(), _execute, job_spec, self.timeout, tcache_root
            )
        except Exception as exc:  # worker process died
            return {
                "ok": False,
                "kind": "error",
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": "",
                "elapsed_s": 0.0,
            }

    async def _run_remote(self, spec: JobSpec) -> dict:
        transport = self.transports[self._next_transport % len(self.transports)]
        self._next_transport += 1
        job_spec = spec
        if spec.program and spec.traceset is not None:
            job_spec = replace(spec, traceset=None)
        try:
            payload = await transport.call(
                {"op": "run", "spec": job_spec.to_dict(), "timeout": self.timeout}
            )
        except Exception as exc:
            return {
                "ok": False,
                "kind": "error",
                "message": f"transport: {type(exc).__name__}: {exc}",
                "traceback": "",
                "elapsed_s": 0.0,
            }
        if not isinstance(payload, dict) or "ok" not in payload:
            return {
                "ok": False,
                "kind": "error",
                "message": f"transport: malformed worker payload {payload!r:.200}",
                "traceback": "",
                "elapsed_s": 0.0,
            }
        return payload

    def _conclude(
        self, spec: JobSpec, key: str, payload: dict, attempts: int
    ) -> CellOutcome:
        if payload["ok"]:
            result = result_from_dict(payload["result"])
            if self.cache is not None:
                self.cache.put(spec, result)
            if payload.get("remote"):
                # the worker answered from a *peer's* store, not by
                # simulating -- surface it as a store-tier hit
                self.metrics.count("remote_hits")
                return CellOutcome(spec, key, "remote", result, attempts=attempts)
            self.metrics.count("executed")
            return CellOutcome(
                spec,
                key,
                "ok",
                result,
                attempts=attempts,
                result_dict=payload["result"],
            )
        self.metrics.count("failed")
        failure = JobFailure(
            key=key,
            label=spec.label(),
            kind=payload.get("kind", "error"),
            message=payload.get("message", ""),
            attempts=attempts,
            spec=spec.to_dict(),
            traceback=payload.get("traceback", ""),
        )
        return CellOutcome(spec, key, "failed", failure, attempts=attempts)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-ready snapshot for ``GET /status`` and ``repro status``."""
        out = {
            "jobs": self.jobs,
            "inline": self.inline,
            "timeout": self.timeout,
            "retries": self.retries,
            "backoff": self.backoff,
            "deadline": self.deadline,
            "transports": len(self.transports),
            "peers": len(self.peer_transports),
            "max_queue": self.max_queue,
            "metrics": self.metrics.to_dict(),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats_dict()
        if self.trace_cache is not None:
            out["trace_cache"] = self.trace_cache.stats_dict()
        return out


# ----------------------------------------------------------------------
# Synchronous batch facade (what run_jobs delegates to)
# ----------------------------------------------------------------------
def _run_coro(coro):
    """Run ``coro`` to completion from synchronous code, even when the
    caller already sits inside an event loop (e.g. a worker agent)."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    import concurrent.futures
    import threading

    box: dict = {}

    def runner() -> None:
        try:
            box["value"] = asyncio.run(coro)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    t = threading.Thread(target=runner, name="repro-run-batch", daemon=True)
    t.start()
    t.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


def run_batch(
    specs,
    jobs: int = 1,
    cache=None,
    timeout: float | None = None,
    retries: int = 0,
    manifest_path=None,
    resume: bool = False,
    trace_cache=None,
    backoff: float = 0.0,
    deadline: float | None = None,
    scheduler: Scheduler | None = None,
) -> BatchResult:
    """Run specs through a :class:`Scheduler`, with the executor's
    manifest/resume bookkeeping; returns outcomes in spec order.

    This is the engine behind :func:`repro.runner.run_jobs` -- see its
    docstring for parameter semantics.  ``scheduler`` injects a live
    (possibly shared) scheduler; otherwise a private one is built from
    the other arguments and torn down afterwards.
    """
    if resume and manifest_path is None:
        raise ValueError("resume=True requires a manifest_path")
    specs = list(specs)
    keys = [s.cache_key() for s in specs]
    manifest = str(manifest_path) if manifest_path else None
    stats = BatchStats(total=len(specs))
    outcomes: list = [None] * len(specs)

    def record(idx: int, status: str, **extra) -> None:
        if manifest is None:
            return
        rec = {
            "key": keys[idx],
            "label": specs[idx].label(),
            "status": status,
            "spec": specs[idx].to_dict(),
        }
        rec.update(extra)
        append_record(manifest, rec)

    pending = list(range(len(specs)))
    if resume:
        completed = load_completed(manifest)
        still = []
        for idx in pending:
            if keys[idx] in completed:
                outcomes[idx] = result_from_dict(completed[keys[idx]])
                stats.resumed += 1
                record(idx, "resumed", attempts=0, elapsed_s=0.0)
            else:
                still.append(idx)
        pending = still

    own = scheduler is None
    if own:
        scheduler = Scheduler(
            jobs=jobs,
            cache=cache,
            trace_cache=trace_cache,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            deadline=deadline,
        )

    def settle(idx: int, out: CellOutcome) -> None:
        outcomes[idx] = out.outcome
        # out.ok first: an attached cell whose owner failed carries the
        # owner's JobFailure (and 0 attempts of its own)
        if not out.ok:
            stats.failed += 1
            stats.retries += max(out.attempts - 1, 0)
            failure = out.outcome
            record(
                idx,
                "failed",
                attempts=out.attempts,
                elapsed_s=out.elapsed_s,
                error={
                    "kind": failure.kind,
                    "message": failure.message,
                    "traceback": failure.traceback,
                },
            )
        elif out.status == "ok":
            stats.executed += 1
            stats.retries += out.attempts - 1
            record(
                idx,
                "ok",
                attempts=out.attempts,
                elapsed_s=out.elapsed_s,
                result=out.result_dict,
            )
        else:
            stats.cached += 1
            record(idx, "cached", attempts=0, elapsed_s=0.0)

    async def drive() -> None:
        if scheduler.inline and not scheduler.transports:
            # strict submission order, one job at a time: the serial path
            for idx in pending:
                settle(idx, await scheduler.submit(specs[idx]))
            return

        async def one(idx: int) -> None:
            settle(idx, await scheduler.submit(specs[idx]))

        await asyncio.gather(*(one(idx) for idx in pending))

    try:
        if pending:
            _run_coro(drive())
    finally:
        if own:
            scheduler.close()

    return BatchResult(
        specs=specs, outcomes=outcomes, stats=stats, manifest_path=manifest
    )
