"""Workload registry: name -> model, with the paper's processor counts.

The six entries correspond to Table 1's rows.  ``get_workload`` builds a
model instance; ``generate_suite`` produces every trace for a sweep.
"""

from __future__ import annotations

from .. import BENCHMARK_ORDER
from ..trace.cache import resolve_trace_cache
from ..trace.records import TraceSet
from .base import Workload
from .fullconn import FullConn
from .grav import Grav
from .pdsa import Pdsa
from .pverify import Pverify
from .qsort import Qsort
from .synthetic import SyntheticContention
from .topopt import Topopt

__all__ = [
    "WORKLOADS",
    "BENCHMARK_ORDER",
    "LOCKING_BENCHMARKS",
    "get_workload",
    "generate_trace",
    "generate_suite",
]

WORKLOADS: dict[str, type[Workload]] = {
    "grav": Grav,
    "pdsa": Pdsa,
    "fullconn": FullConn,
    "pverify": Pverify,
    "qsort": Qsort,
    "topopt": Topopt,
    # extension: the prior literature's artificial microbenchmark (not a
    # paper benchmark -- excluded from BENCHMARK_ORDER)
    "synthetic": SyntheticContention,
}

#: benchmarks with at least one lock operation (Tables 4/6/8 rows)
LOCKING_BENCHMARKS = ["grav", "pdsa", "fullconn", "pverify", "qsort"]


def get_workload(name: str, scale: float = 1.0, seed: int = 1991) -> Workload:
    """Instantiate a benchmark model by name."""
    try:
        cls = WORKLOADS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return cls(scale=scale, seed=seed)


def generate_trace(
    name: str,
    scale: float = 1.0,
    seed: int = 1991,
    n_procs: int | None = None,
    bulk: bool = True,
    trace_cache=None,
) -> TraceSet:
    """Generate one benchmark's trace set.

    ``trace_cache`` routes the lookup through a content-addressed
    :class:`repro.trace.cache.TraceCache`: a hit loads the stored trace
    (memory-mapped, shared between processes) instead of regenerating.
    Accepts a cache handle, a directory, ``True`` (default directory) or
    ``False`` (off); ``None`` defers to ``$REPRO_TRACE_CACHE``.  Cached
    and fresh tracesets are byte-identical (enforced by
    tests/test_trace_cache.py and ``repro diff-verify``).
    """
    name = name.lower()
    cache = resolve_trace_cache(trace_cache)
    if cache is not None:
        ts = cache.get(name, scale, seed, n_procs)
        if ts is not None:
            return ts
    ts = get_workload(name, scale=scale, seed=seed).generate(n_procs=n_procs, bulk=bulk)
    if cache is not None:
        cache.put(ts, scale=scale, seed=seed, n_procs=n_procs)
    return ts


def generate_suite(
    scale: float = 1.0, seed: int = 1991, trace_cache=None
) -> dict[str, TraceSet]:
    """Generate the whole benchmark suite at one scale."""
    return {
        name: generate_trace(name, scale=scale, seed=seed, trace_cache=trace_cache)
        for name in BENCHMARK_ORDER
    }
