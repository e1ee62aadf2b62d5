"""repro: reproduction of Baer & Zucker, "On Synchronization Patterns in
Parallel Programs" (ICPP 1991).

A trace-driven simulator of a shared-bus multiprocessor (Sequent
Symmetry Model B class: per-CPU 64 KB two-way write-back caches with
Illinois coherence, split-transaction bus, buffered memory) together
with models of the paper's six benchmark programs, two lock
implementations (queuing locks and test-and-test-and-set) and two
memory-consistency models (sequential consistency and weak ordering).

Quick start::

    from repro import generate_trace, simulate

    trace = generate_trace("grav")
    result = simulate(trace)           # queuing locks, sequential consistency
    print(result.summary())

The ``repro.core`` package holds the paper's study itself: the ideal
trace analysis (Tables 1-2), the experiment driver, and the
table-by-table reproduction harness.

Every public name loads on first use (PEP 562), with the subpackage
that defines it: ``import repro`` alone loads neither numpy nor the
simulator, so a process that only serves or submits stored results
never does.
"""

import importlib as _importlib

__version__ = "1.0.0"

#: the paper's six programs in its table order; kept here, outside
#: ``repro.workloads``, so a client can name them without loading the
#: program models
BENCHMARK_ORDER = ["grav", "pdsa", "fullconn", "pverify", "qsort", "topopt"]


def _lazy(namespace: dict, exports: dict):
    """``(__getattr__, __dir__)`` of the package whose globals are
    ``namespace``: each name in ``exports`` is read from its submodule
    (``"sub"``, or ``"sub:attr"`` for a renamed one) on first use."""
    package = namespace["__name__"]

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, _, attr = exports[name].partition(":")
        value = getattr(_importlib.import_module("." + module, package), attr or name)
        namespace[name] = value  # later reads skip this hook
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


#: public name -> the subpackage that defines it
_EXPORTS = {
    "ConsistencyModel": "consistency",
    "SEQUENTIAL": "consistency",
    "TSO": "consistency",
    "WEAK": "consistency",
    "get_model": "consistency",
    "BusConfig": "machine",
    "CacheConfig": "machine",
    "MachineConfig": "machine",
    "MemoryConfig": "machine",
    "RunResult": "machine",
    "System": "machine",
    "simulate": "machine",
    "LOCK_SCHEMES": "sync",
    "ExactQueuingLockManager": "sync",
    "LockManager": "sync",
    "QueuingLockManager": "sync",
    "TestAndSetLockManager": "sync",
    "TestAndTestAndSetLockManager": "sync",
    "get_lock_manager": "sync",
    "JobFailure": "runner",
    "JobSpec": "runner",
    "ResultCache": "runner",
    "run_jobs": "runner",
    "Trace": "trace",
    "TraceSet": "trace",
    "load_traceset": "trace",
    "save_traceset": "trace",
    "WORKLOADS": "workloads",
    "Workload": "workloads",
    "generate_suite": "workloads",
    "generate_trace": "workloads",
    "get_workload": "workloads",
}

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
__all__ = sorted([*_EXPORTS, "BENCHMARK_ORDER", "__version__"])
