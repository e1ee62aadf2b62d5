"""Batch executor: fan a list of :class:`JobSpec`s across worker
processes with caching, per-job timeout, bounded retry, and structured
failure capture.

This module owns the *worker side* (:func:`_execute`, the in-worker
timeout timer, the trace memo, the sync-free simulation memo) and the
batch datatypes; the coordinator is the sweep-service scheduler --
:func:`run_jobs` is a thin synchronous client of
:func:`repro.service.scheduler.run_batch`, which adds
in-flight deduplication, exponential backoff, and per-job deadline
budgets on top of the semantics documented here.

Design points:

* ``jobs=1`` is the degenerate serial path: specs run in order, in
  process, with no executor machinery between the spec and the
  simulator -- existing callers (and the byte-identical table outputs)
  ride on this path unless they opt into parallelism.
* Workers return results as JSON dictionaries, never live objects, so
  every parallel result crosses the process boundary through the same
  serialization layer the cache uses.
* A failing or timing-out job yields a :class:`JobFailure` in the batch
  outcome -- it never aborts the remaining jobs.  Timeouts are enforced
  *inside* the worker with an interval timer, so a timed-out worker
  survives to take its next job instead of poisoning the pool.
* Every outcome is appended to a JSONL manifest (see
  :mod:`repro.runner.manifest`); ``resume=True`` restores completed
  jobs from a previous manifest and runs only the rest.
"""

from __future__ import annotations

import json
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from ..machine.metrics import RunResult
from ..sync.stats import LockStatsCollector
from .cache import ResultCache
from .serialize import result_to_dict
from .spec import JobSpec, traceset_digest

__all__ = ["JobFailure", "BatchStats", "BatchResult", "run_jobs"]


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that could not produce a result."""

    key: str
    label: str
    kind: str  # "timeout" | "error"
    message: str
    attempts: int
    spec: dict = field(default_factory=dict)
    traceback: str = ""

    def __str__(self) -> str:
        # the key prefix makes a failure line grep-able against manifest
        # records and cache paths (same content address everywhere)
        tag = f" [{self.key[:12]}]" if self.key else ""
        return (
            f"{self.label}{tag}: {self.kind} after "
            f"{self.attempts} attempt(s): {self.message}"
        )


@dataclass
class BatchStats:
    """What actually happened while running one batch."""

    total: int = 0
    executed: int = 0  # simulations that ran to completion
    cached: int = 0  # restored from the result cache
    resumed: int = 0  # restored from a previous batch manifest
    failed: int = 0
    retries: int = 0

    def summary(self) -> str:
        return (
            f"{self.total} jobs: {self.executed} executed, "
            f"{self.cached} from cache, {self.resumed} resumed, "
            f"{self.failed} failed ({self.retries} retries)"
        )


@dataclass
class BatchResult:
    """Outcomes of one batch, in spec order."""

    specs: list
    outcomes: list  # RunResult | JobFailure, aligned with specs
    stats: BatchStats
    manifest_path: str | None = None

    def results(self) -> list:
        return [o for o in self.outcomes if isinstance(o, RunResult)]

    def failures(self) -> list:
        return [o for o in self.outcomes if isinstance(o, JobFailure)]

    def ok(self) -> bool:
        return not self.failures()

    def raise_on_failure(self) -> "BatchResult":
        fails = self.failures()
        if fails:
            lines = "\n  ".join(str(f) for f in fails)
            raise RuntimeError(f"{len(fails)} job(s) failed:\n  {lines}")
        return self


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):  # pragma: no cover - fires asynchronously
    raise _JobTimeout()


def _arm_timer(timeout: float | None):
    """Install a real-time interval timer; returns a disarm callback."""
    if (
        not timeout
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return lambda: None
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    # Periodic, not one-shot: a raise from the handler can land inside an
    # unrelated ``except`` block (lazy imports are the usual victim) and be
    # swallowed, so keep re-firing until one delivery propagates.
    signal.setitimer(signal.ITIMER_REAL, timeout, min(timeout, 1.0))

    def disarm() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)

    return disarm


#: per-worker memo of generated traces, so the several configurations of
#: one program landing on the same worker share a single generation
_TRACE_MEMO: dict[tuple, object] = {}
_TRACE_MEMO_MAX = 8


def _memoized_traceset(spec: JobSpec, trace_cache=None):
    if spec.traceset is not None or not spec.program:
        return spec.traceset
    key = (spec.program, spec.scale, spec.seed, spec.n_procs)
    ts = _TRACE_MEMO.get(key)
    if ts is None:
        tcache = None
        if trace_cache is not None:
            from ..trace.cache import TraceCache

            tcache = (
                trace_cache
                if isinstance(trace_cache, TraceCache)
                else TraceCache(trace_cache)
            )
            ts = tcache.get(spec.program, spec.scale, spec.seed, spec.n_procs)
        if ts is None:
            ts = spec.resolve_traceset()
            if tcache is not None:
                tcache.put(ts, scale=spec.scale, seed=spec.seed, n_procs=spec.n_procs)
        if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
            _TRACE_MEMO.clear()
        _TRACE_MEMO[key] = ts
    return ts


#: per-process memo of sync-free simulations: (trace digest, machine,
#: consistency model, max_events) -> the result's JSON (see _simulate)
_SYNC_FREE_MEMO: dict[tuple, str] = {}
_SYNC_FREE_MEMO_MAX = 8

_NO_LOCK_STATS = LockStatsCollector().snapshot()


def _simulate(spec: JobSpec, ts) -> dict:
    """``result_to_dict(spec.run(traceset=ts))``, with a sync-free
    traceset simulated once per (trace digest, machine, model,
    ``max_events``) in this process.

    A traceset with no sync record never reaches the lock manager
    (:func:`repro.trace.sync_free`), so the other lock schemes get a
    fresh copy of that one run relabeled with their own scheme name.
    The requested manager is still built, so a bad scheme or bad
    ``lock_kwargs`` fails exactly as ``spec.run`` would.  A run that
    granted a lock-kind bus op or counted a lock statistic anyway is
    not memoized.
    """
    from ..machine.buffers import LOCK_MEM, LOCK_XFER
    from ..sync import get_lock_manager
    from ..trace.validate import sync_free

    if ts is None or not sync_free(ts):
        return result_to_dict(spec.run(traceset=ts))
    name = get_lock_manager(spec.lock_scheme, **dict(spec.lock_kwargs)).name
    key = (traceset_digest(ts), spec.machine, spec.consistency, spec.max_events)
    text = _SYNC_FREE_MEMO.get(key)
    if text is not None:
        payload = json.loads(text)
        payload["lock_scheme"] = name
        return payload
    result = spec.run(traceset=ts)
    payload = result_to_dict(result)
    if result.lock_stats == _NO_LOCK_STATS and not any(
        LOCK_MEM <= kind <= LOCK_XFER for kind in result.bus_op_counts
    ):
        if len(_SYNC_FREE_MEMO) >= _SYNC_FREE_MEMO_MAX:
            _SYNC_FREE_MEMO.clear()
        _SYNC_FREE_MEMO[key] = json.dumps(payload)
    return payload


def _execute(spec: JobSpec, timeout: float | None, trace_cache=None) -> dict:
    """Run one job; always returns a JSON-ready payload, never raises.

    ``trace_cache`` (a :class:`repro.trace.cache.TraceCache` in-process,
    or its root directory as a string when crossing into a worker) lets
    the job memory-map a previously generated trace instead of
    regenerating it.
    """
    start = time.perf_counter()
    disarm = _arm_timer(timeout)
    try:
        result = _simulate(spec, _memoized_traceset(spec, trace_cache))
        disarm()  # idempotent; a late re-fire must not escape _execute
        payload = {"ok": True, "result": result}
    except _JobTimeout:
        disarm()
        payload = {
            "ok": False,
            "kind": "timeout",
            "message": f"job exceeded {timeout:g}s",
            "traceback": "",
        }
    except BaseException as exc:  # noqa: BLE001 - failures must be captured
        disarm()
        payload = {
            "ok": False,
            "kind": "error",
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    finally:
        disarm()
    payload["elapsed_s"] = round(time.perf_counter() - start, 6)
    return payload


# ----------------------------------------------------------------------
# Coordinator side: a thin client of the service scheduler
# ----------------------------------------------------------------------
def run_jobs(
    specs,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
    timeout: float | None = None,
    retries: int = 0,
    manifest_path: str | Path | None = None,
    resume: bool = False,
    trace_cache=None,
    backoff: float = 0.0,
    deadline: float | None = None,
) -> BatchResult:
    """Run a list of :class:`JobSpec`s and return their outcomes in order.

    The batch is served by the sweep-service scheduler
    (:func:`repro.service.scheduler.run_batch`): cache hits are answered
    from the content-addressed store, duplicate specs within the batch
    collapse onto one in-flight job, and misses run inline (``jobs=1``,
    the byte-identical serial path) or on a local process pool.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` runs serially in this process.
    cache:
        A :class:`ResultCache`, a cache directory path, or ``None`` to
        disable caching.  Hits skip simulation entirely.
    timeout:
        Per-job wall-clock limit in seconds (enforced in the worker; a
        timed-out job becomes a ``"timeout"`` :class:`JobFailure`).
    retries:
        Extra attempts granted to a failing job before it is recorded
        as a :class:`JobFailure`.
    manifest_path:
        JSONL file receiving one record per outcome.
    resume:
        Restore jobs already completed in ``manifest_path`` from a
        previous invocation instead of re-running them.
    trace_cache:
        A :class:`repro.trace.cache.TraceCache`, a directory, ``True``
        (default directory), ``False`` (off), or ``None`` (defer to
        ``$REPRO_TRACE_CACHE``).  Provenance-named jobs then load their
        trace from the cache (memory-mapped, so parallel workers share
        pages) instead of regenerating it per worker.
    backoff:
        Base of the exponential backoff between retry attempts; ``0``
        (default) retries immediately.
    deadline:
        Per-job wall-clock budget across all attempts; once exhausted
        the job fails with kind ``"deadline"`` instead of retrying.
    """
    # imported lazily: repro.service imports this module for _execute
    # and the batch dataclasses, so the top level must stay acyclic
    from ..service.scheduler import run_batch

    return run_batch(
        specs,
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        manifest_path=manifest_path,
        resume=resume,
        trace_cache=trace_cache,
        backoff=backoff,
        deadline=deadline,
    )
