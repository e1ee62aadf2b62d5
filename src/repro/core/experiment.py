"""Experiment driver: one (program x lock scheme x consistency model)
simulation, plus the suite runner used by every results table.

A generated :class:`TraceSet` is immutable, so one trace serves all
machine configurations of a program -- exactly how the paper reuses each
MPTrace tape across its architectural variations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..consistency import get_model
from ..machine.config import MachineConfig
from ..machine.metrics import RunResult
from ..machine.system import simulate
from ..runner import JobSpec
from ..sync import get_lock_manager
from ..trace.records import TraceSet
from ..workloads.registry import BENCHMARK_ORDER, generate_trace

__all__ = ["Experiment", "run_experiment", "SuiteResults", "run_suite"]


@dataclass
class Experiment:
    """A single simulation experiment.

    Either pass an explicit ``traceset`` or let the experiment generate
    the named workload (``program``/``scale``/``seed``).
    """

    program: str = ""
    lock_scheme: str = "queuing"
    consistency: str = "sc"
    scale: float = 1.0
    seed: int = 1991
    machine: MachineConfig | None = None
    traceset: TraceSet | None = None
    lock_kwargs: dict = field(default_factory=dict)
    max_events: int | None = None
    #: trace-cache routing for the generated trace: a TraceCache handle,
    #: a directory, True/False, or None ($REPRO_TRACE_CACHE)
    trace_cache: object = None

    def trace(self) -> TraceSet:
        if self.traceset is None:
            if not self.program:
                raise ValueError("need either a traceset or a program name")
            self.traceset = generate_trace(
                self.program,
                scale=self.scale,
                seed=self.seed,
                trace_cache=self.trace_cache,
            )
        return self.traceset

    def run(self) -> RunResult:
        return simulate(
            self.trace(),
            self.machine,
            get_lock_manager(self.lock_scheme, **self.lock_kwargs),
            get_model(self.consistency),
            max_events=self.max_events,
        )


def run_experiment(
    program: str,
    lock_scheme: str = "queuing",
    consistency: str = "sc",
    scale: float = 1.0,
    seed: int = 1991,
    machine: MachineConfig | None = None,
    traceset: TraceSet | None = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`Experiment`."""
    return Experiment(
        program=program,
        lock_scheme=lock_scheme,
        consistency=consistency,
        scale=scale,
        seed=seed,
        machine=machine,
        traceset=traceset,
    ).run()


@dataclass
class SuiteResults:
    """All runs needed by Tables 3--8: per program, the three
    configurations the paper evaluates."""

    scale: float
    seed: int
    traces: dict  # program -> TraceSet
    queuing_sc: dict  # program -> RunResult   (Tables 3, 4)
    ttas_sc: dict  # program -> RunResult      (Tables 5, 6)
    queuing_wo: dict  # program -> RunResult   (Tables 7, 8)
    #: the BatchResult that produced these runs (None when assembled by
    #: hand, e.g. the benchmark harness); carries executor/cache stats
    batch: object = None

    def programs(self) -> list[str]:
        return [p for p in BENCHMARK_ORDER if p in self.queuing_sc]


def run_suite(
    programs: list[str] | None = None,
    scale: float = 1.0,
    seed: int = 1991,
    machine: MachineConfig | None = None,
    configs: tuple = (("queuing", "sc"), ("ttas", "sc"), ("queuing", "wo")),
    jobs: int = 1,
    cache=None,
    timeout: float | None = None,
    retries: int = 0,
    manifest_path=None,
    resume: bool = False,
    trace_cache=None,
    backoff: float = 0.0,
    deadline: float | None = None,
    scheduler=None,
) -> SuiteResults:
    """Run the paper's full experimental grid.

    Each program's trace is generated once and reused across the three
    machine configurations.  The grid is served by the sweep-service
    scheduler (:func:`repro.service.scheduler.run_batch`): ``jobs=1``
    (the default) is the serial in-process path, ``jobs>1`` fans the
    grid across worker processes, and ``cache`` (a
    :class:`repro.runner.ResultCache` or a directory path) skips every
    simulation whose result is already known.  ``trace_cache``
    additionally routes trace generation through a
    :class:`repro.trace.cache.TraceCache`, so the parent warms the cache
    once and worker processes memory-map the stored traces instead of
    regenerating them.  ``scheduler`` injects a live (possibly shared,
    possibly remote-backed) :class:`repro.service.Scheduler`; the other
    execution knobs then come from it.  Either way the table outputs are
    identical -- every run is deterministic in its spec.
    """
    from ..service.scheduler import run_batch
    from ..trace.cache import resolve_trace_cache

    programs = programs or list(BENCHMARK_ORDER)
    tcache = resolve_trace_cache(trace_cache)
    traces = {}
    for p in programs:
        try:
            traces[p] = generate_trace(
                p, scale=scale, seed=seed, trace_cache=tcache if tcache else False
            )
        except Exception:
            # leave the traceset off: the job fails in the executor with
            # a structured JobFailure instead of aborting the whole grid
            pass
    specs = [
        JobSpec(
            program=p,
            scale=scale,
            seed=seed,
            lock_scheme=scheme,
            consistency=model,
            machine=machine,
            traceset=traces.get(p),
        )
        for p in programs
        for scheme, model in configs
    ]
    batch = run_batch(
        specs,
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        manifest_path=manifest_path,
        resume=resume,
        trace_cache=tcache if tcache else False,
        backoff=backoff,
        deadline=deadline,
        scheduler=scheduler,
    ).raise_on_failure()
    buckets: dict[tuple, dict] = {c: {} for c in configs}
    it = iter(batch.outcomes)
    for p in programs:
        for scheme, model in configs:
            buckets[(scheme, model)][p] = next(it)
    return SuiteResults(
        scale=scale,
        seed=seed,
        traces=traces,
        queuing_sc=buckets.get(("queuing", "sc"), {}),
        ttas_sc=buckets.get(("ttas", "sc"), {}),
        queuing_wo=buckets.get(("queuing", "wo"), {}),
        batch=batch,
    )
