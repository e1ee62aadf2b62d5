"""Trace-generation throughput benchmark and perf-smoke gate.

Not a paper artifact: this watches the two trace-generation fast paths
(see docs/performance.md).  Every registry program is generated at scale
1.0 through the bulk emission path (``bulk=True``, the default: chunked
ndarray appends through :class:`repro.trace.builder.TraceBuilder`'s
vector APIs) and through the scalar reference path (``bulk=False``: the
same workload logic replayed record-by-record through the per-record
API), timed paired-adjacent; and one program is additionally timed
against a warm :class:`repro.trace.cache.TraceCache` (the second fast
path: don't generate at all -- memory-map the records a previous run
stored).

Measurement protocol matches test_hotpath_throughput: adjacent runs,
``time.process_time``, best-of-N per mode, because wall-clock drift
between separated runs easily exceeds the effect measured.

The report is written to the scratch file
``benchmarks/output/BENCH_tracegen.json`` (not tracked); the canonical
copy lives under the ``"tracegen"`` key of the committed
``BENCH_hotpath.json`` at the repository root.  Regenerate on a quiet
machine with::

    PYTHONPATH=src python -m pytest benchmarks/test_tracegen_throughput.py -q

and copy the scratch report over the root file's ``"tracegen"`` section.

Perf smoke: when ``REPRO_PERF_ENFORCE`` is set (the CI perf-smoke job
does this), the test fails if the bulk path stops paying for itself
(aggregate speedup below 1 - tolerance vs its own scalar reference), if
a warm cache load is not at least 3x faster than regenerating, or if
aggregate bulk records/sec regresses more than 25% below the committed
baseline.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
import time
from pathlib import Path

import pytest

import numpy as np

from repro.trace.builder import TraceBuilder
from repro.trace.cache import TraceCache
from repro.trace.encode import dumps_traceset
from repro.trace.records import IBLOCK, LOCK, READ, UNLOCK, WRITE
from repro.workloads.registry import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = Path(__file__).parent / "output"
BASELINE_PATH = ROOT / "BENCH_hotpath.json"

REPS = int(os.environ.get("REPRO_PERF_REPS", "3"))
ENFORCE = bool(os.environ.get("REPRO_PERF_ENFORCE"))
TOLERANCE = 0.25
#: a warm cache hit must beat regenerating by at least this factor
CACHE_FLOOR = 3.0

SCALE = 1.0
SEED = 1991
CACHE_PROGRAM = "qsort"


def _timed(fn):
    gc.collect()
    t0 = time.process_time()
    out = fn()
    return time.process_time() - t0, out


def _measure_program(name: str):
    """Best-of-REPS bulk and scalar generation, interleaved."""
    factory = WORKLOADS[name]

    def gen(bulk: bool):
        return factory(scale=SCALE, seed=SEED).generate(bulk=bulk)

    gen(True)  # warm: imports, allocator pools
    gen(False)
    best = {True: 9e9, False: 9e9}
    records = None
    for _ in range(REPS):
        for bulk in (True, False):
            seconds, ts = _timed(lambda: gen(bulk))
            best[bulk] = min(best[bulk], seconds)
            records = ts.total_records()
    return {
        "records": records,
        "bulk_seconds": round(best[True], 4),
        "scalar_seconds": round(best[False], 4),
        "bulk_records_per_sec": round(records / best[True]),
        "speedup": round(best[False] / best[True], 3),
    }


def _measure_emission(ts):
    """The emission layer in isolation: stream one real traceset's
    records through the scalar per-record API and through one bulk
    append per processor.  This is the path the chunked builder
    replaced; end-to-end program cells dilute it with model compute."""
    per_proc = [np.asarray(t.records) for t in ts.traces]
    rows = [
        [(int(r["kind"]), int(r["addr"]), int(r["arg"]), int(r["cycles"])) for r in recs]
        for recs in per_proc
    ]

    def scalar():
        for proc, proc_rows in enumerate(rows):
            b = TraceBuilder(proc, program=ts.program)
            for kind, addr, arg, cycles in proc_rows:
                if kind == IBLOCK:
                    b.block(arg, cycles, addr)
                elif kind == READ:
                    b.read(addr, arg)
                elif kind == WRITE:
                    b.write(addr, arg)
                elif kind == LOCK:
                    b.lock(arg, addr)
                elif kind == UNLOCK:
                    b.unlock(arg, addr)
                else:
                    b.barrier(arg)
            b.finish()

    def bulk():
        # finish() validates the whole trace on both sides, as in
        # production generation
        for proc, recs in enumerate(per_proc):
            b = TraceBuilder(proc, program=ts.program)
            b.append_records(recs)
            b.finish()

    scalar()  # warm
    bulk()
    best = {"scalar": 9e9, "bulk": 9e9}
    for _ in range(REPS):
        for mode, fn in (("bulk", bulk), ("scalar", scalar)):
            seconds, _ = _timed(fn)
            best[mode] = min(best[mode], seconds)
    records = ts.total_records()
    return {
        "program": ts.program,
        "records": records,
        "scalar_seconds": round(best["scalar"], 4),
        "bulk_seconds": round(best["bulk"], 5),
        "scalar_records_per_sec": round(records / best["scalar"]),
        "bulk_records_per_sec": round(records / best["bulk"]),
        "speedup": round(best["scalar"] / best["bulk"], 1),
    }


def _measure_suite_warm(tmp: Path):
    """Cold (generate + store) vs warm (mmap load) for the whole
    registry: the trace-side wall-clock a warm-cache ``run_suite``
    saves."""
    cache = TraceCache(tmp / "suite-traces")

    def cold():
        for name in sorted(WORKLOADS):
            ts = WORKLOADS[name](scale=SCALE, seed=SEED).generate()
            cache.put(ts, scale=SCALE, seed=SEED)

    def warm():
        for name in sorted(WORKLOADS):
            assert cache.get(name, scale=SCALE, seed=SEED) is not None

    cold_seconds, _ = _timed(cold)
    warm()  # touch pages once
    best_warm = 9e9
    for _ in range(max(REPS, 3)):
        seconds, _ = _timed(warm)
        best_warm = min(best_warm, seconds)
    return {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(best_warm, 5),
        "ratio": round(cold_seconds / best_warm, 1),
    }


def _measure_cache_cell(name: str, tmp: Path):
    """Fresh generation vs a warm mmap load of the same traceset."""
    cache = TraceCache(tmp / "traces")
    factory = WORKLOADS[name]

    def gen():
        return factory(scale=SCALE, seed=SEED).generate()

    ts = gen()
    cache.put(ts, scale=SCALE, seed=SEED)
    hit = cache.get(name, scale=SCALE, seed=SEED)
    # the cache must be byte-neutral before its timings mean anything
    assert dumps_traceset(hit) == dumps_traceset(ts)

    best_gen = best_load = 9e9
    for _ in range(max(REPS, 3)):
        seconds, _ = _timed(gen)
        best_gen = min(best_gen, seconds)
        seconds, loaded = _timed(
            lambda: cache.get(name, scale=SCALE, seed=SEED)
        )
        assert loaded is not None
        best_load = min(best_load, seconds)
    return {
        "program": name,
        "records": ts.total_records(),
        "generate_seconds": round(best_gen, 4),
        "warm_load_seconds": round(best_load, 5),
        "warm_speedup": round(best_gen / best_load, 1),
    }


def test_tracegen_throughput():
    baseline = None
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh).get("tracegen")

    programs = {}
    for name in sorted(WORKLOADS):
        programs[name] = _measure_program(name)

    total_records = sum(c["records"] for c in programs.values())
    total_bulk = sum(c["bulk_seconds"] for c in programs.values())
    total_scalar = sum(c["scalar_seconds"] for c in programs.values())
    emission = _measure_emission(
        WORKLOADS[CACHE_PROGRAM](scale=SCALE, seed=SEED).generate()
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache_cell = _measure_cache_cell(CACHE_PROGRAM, Path(tmp))
        suite_warm = _measure_suite_warm(Path(tmp))

    aggregate = {
        "records": total_records,
        "bulk_seconds": round(total_bulk, 4),
        "scalar_seconds": round(total_scalar, 4),
        "bulk_records_per_sec": round(total_records / total_bulk),
        "speedup": round(total_scalar / total_bulk, 3),
    }
    # the frozen pre-bulk generation time (whole registry, per-record
    # emission *and* pre-vectorization model loops), measured once at
    # the commit that introduced the bulk path and carried forward
    # unchanged in the committed baseline -- the bus cells' pattern
    if baseline is not None:
        frozen = baseline.get("aggregate", {}).get("pre_bulk_seconds")
        if frozen is not None:
            aggregate["pre_bulk_seconds"] = frozen
            aggregate["speedup_vs_pre_bulk"] = round(frozen / total_bulk, 3)

    report = {
        "protocol": (
            f"process_time, adjacent bulk/scalar runs, best of {REPS}; "
            f"every registry program generated at scale {SCALE} seed "
            f"{SEED}; bulk is the default chunked-ndarray emission path, "
            "scalar replays the same workload record-by-record through "
            "the per-record builder API; the emission cell streams one "
            "real traceset's records through both builder APIs in "
            "isolation (both sides pay finish-time validation); the "
            "cache cells time fresh generation against "
            "warm mmap loads from a TraceCache; pre_bulk_seconds is the "
            "frozen pre-bulk-path generation time, carried forward"
        ),
        "programs": programs,
        "aggregate": aggregate,
        "emission": emission,
        "cache": cache_cell,
        "suite_warm": suite_warm,
    }

    OUTPUT_DIR.mkdir(exist_ok=True)
    with open(OUTPUT_DIR / "BENCH_tracegen.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    # sanity floors that hold on any machine
    assert report["aggregate"]["bulk_records_per_sec"] > 100_000, report
    assert cache_cell["warm_speedup"] > 1, cache_cell

    if not ENFORCE:
        return

    problems = []
    # the bulk path must still pay for itself against its own reference...
    if report["aggregate"]["speedup"] < 1 - TOLERANCE:
        problems.append(
            f"aggregate: bulk emission {report['aggregate']['speedup']}x "
            "vs the scalar reference"
        )
    # ...the emission layer itself must stay decisively vectorized...
    if emission["speedup"] < 3.0:
        problems.append(
            f"emission: bulk append only {emission['speedup']}x the "
            "per-record API (floor 3x)"
        )
    # ...a warm cache hit must stay decisively cheaper than regenerating...
    if cache_cell["warm_speedup"] < CACHE_FLOOR:
        problems.append(
            f"cache/{cache_cell['program']}: warm load only "
            f"{cache_cell['warm_speedup']}x faster than regenerating "
            f"(floor {CACHE_FLOOR}x)"
        )
    # ...and nothing may regress vs the committed baseline
    if baseline is not None:
        base = baseline["aggregate"]["bulk_records_per_sec"]
        got = report["aggregate"]["bulk_records_per_sec"]
        if got < base * (1 - TOLERANCE):
            problems.append(
                f"aggregate: {got} records/sec is >{TOLERANCE:.0%} below "
                f"the committed baseline {base}"
            )
        missing = sorted(set(report["programs"]) - set(baseline.get("programs", {})))
        stale = sorted(set(baseline.get("programs", {})) - set(report["programs"]))
        if missing or stale:
            problems.append(
                "committed tracegen baseline is out of sync with the "
                f"registry (missing: {missing or 'none'}, stale: "
                f"{stale or 'none'}); regenerate it and copy "
                "benchmarks/output/BENCH_tracegen.json over the root "
                "file's 'tracegen' section"
            )
    else:
        problems.append(
            f"committed baseline {BASELINE_PATH} has no 'tracegen' section"
        )
    if problems:
        pytest.fail(
            "trace-generation throughput regression:\n  "
            + "\n  ".join(problems),
            pytrace=False,
        )
