"""Hot-path throughput benchmark and perf-smoke gate.

Not a paper artifact: this watches the four differentially-verified
fast paths (see docs/performance.md).  Two synthetic single-processor
"hot loop" traces -- all-private, bus-free after the cold pass, so
nearly every record is fast-path eligible -- are simulated with
``fast_path`` on and off; each suite program's (queuing, SC) cell is
timed with the window fast path on; the two most bus-bound suite cells
(qsort, pdsa) are additionally timed with ``bus_fast_path`` on and off
(the *contended path* cells); and the same two hot loops are timed in
three interleaved modes -- full production, production minus the
kernel, and the reference interpreter -- (the *kernel* cells, where the
quiet machine lets the columnar kernel collapse nearly the whole
trace).  Four *spin cells* time contended 4-processor hot loops (two
shapes, under ticket and backoff) with the spin-phase collapse kernel
on and off, paired-adjacent; they live in the ``locks`` section next to
the lock-zoo sweep.  Throughput is reported as trace references per
second and engine events per second.

Axis isolation: every section except the kernel and audit cells pins
``segment_kernel=False``, so the hot-loop pair still measures the window
fast path alone (with the kernel at its default the quiet hot loop
would be collapsed columnar on *both* sides) and the suite/bus numbers
stay comparable to the pre-kernel committed baselines.  The kernel
cells report two paired ratios: ``speedup_vs_reference`` (the
end-to-end claim, held to a 5x floor) and ``speedup_vs_fastpath`` (the
kernel's own contribution over the already-optimized interpreter).

Measurement protocol: the fast/reference runs of each trace are timed
*adjacently* (same process, alternating) with ``time.process_time`` and
best-of-N is kept per mode, because wall-clock drift between separated
runs on a shared machine easily exceeds the effect being measured.  For
the bus cells the reference mode restores the committed-baseline
implementation of the whole contended-path bundle (arbiter, event
chaining, engine dispatch, LRU touch, issue path), so the paired ratio
*is* the end-to-end speedup of the bundle vs the committed baseline,
measured under identical machine conditions.

The committed ``BENCH_hotpath.json`` at the repository root is the ONE
canonical baseline; the run's report is written to the scratch file
``benchmarks/output/BENCH_hotpath.json`` (not tracked), and the enforce
mode fails if the scratch report's structure has drifted from the
committed baseline (a reminder to re-sync it).

Perf smoke: when ``REPRO_PERF_ENFORCE`` is set (the CI perf-smoke job
does this), the measured fast-path refs/sec for both hot-loop traces is
compared against the committed baseline at the repository root and the
test fails on a regression of more than 25%; it also fails if either
fast path is more than 25% *slower* than its reference mode on its own
home turf, if the bus cells' paired speedup regresses more than 25%
below the baseline's recorded speedup, or if a kernel cell's speedup
over the reference interpreter drops below the 5x design floor (or
more than 25% below its baseline, or under 90% quiet-trace coverage,
or under break-even vs the window fast path), or if a spin cell's
paired speedup drops below the 3x design floor (or never collapses a
phase).  Regenerate the root baseline on a quiet machine with::

    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_throughput.py -q
    cp benchmarks/output/BENCH_hotpath.json BENCH_hotpath.json
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.consistency import SEQUENTIAL
from repro.machine.config import MachineConfig
from repro.machine.system import System
from repro.sync import QueuingLockManager
from repro.trace.layout import PRIVATE_BASE, SHARED_BASE, AddressLayout
from repro.trace.records import IBLOCK, READ, RECORD_DTYPE, WRITE, Trace, TraceSet
from repro.workloads.registry import BENCHMARK_ORDER, generate_trace

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = Path(__file__).parent / "output"
BASELINE_PATH = ROOT / "BENCH_hotpath.json"

#: paired repetitions per (trace, mode); raise for quieter numbers
REPS = int(os.environ.get("REPRO_PERF_REPS", "5"))
ENFORCE = bool(os.environ.get("REPRO_PERF_ENFORCE"))
#: allowed refs/sec regression vs the committed baseline
TOLERANCE = 0.25

#: the two most bus-bound suite cells: the contended-path (bus fast
#: path) cells time exactly these
BUS_CELLS = ("qsort", "pdsa")

HOTLOOP_RECORDS = 400_000
HOTLOOP_LINES = 512
HOTLOOP_SEED = 7


def _make_hotloop(name: str, ib_args: tuple[int, int], d_args: tuple[int, int]):
    """A single-processor trace whose working set (512 data + 512 code
    lines at 16 bytes/line) fits the default cache: after the cold pass
    every access hits, no bus traffic, all fast-path eligible."""
    rng = np.random.default_rng(HOTLOOP_SEED)
    n, lines, lb = HOTLOOP_RECORDS, HOTLOOP_LINES, 16
    rec = np.zeros(n, dtype=RECORD_DTYPE)
    kinds = rng.choice([IBLOCK, READ, WRITE], size=n, p=[0.5, 0.3, 0.2])
    is_ib = kinds == IBLOCK
    arg = np.where(
        is_ib,
        rng.integers(ib_args[0], ib_args[1] + 1, size=n),
        rng.integers(d_args[0], d_args[1] + 1, size=n),
    )
    line_idx = rng.integers(0, lines, size=n)
    rec["kind"] = kinds
    rec["addr"] = np.where(is_ib, PRIVATE_BASE + lines * lb, PRIVATE_BASE) + line_idx * lb
    rec["arg"] = arg
    rec["cycles"] = np.where(is_ib, arg, 0)
    return TraceSet(
        [Trace(rec, proc=0, program=name)], AddressLayout(n_procs=1), program=name
    )


#: word-granular accesses only: every record stays within one line, so
#: the fast path's packed single-line codes carry the whole trace
def _single_line():
    return _make_hotloop("hotloop-single", ib_args=(4, 4), d_args=(4, 4))


#: instruction blocks span 2-4 lines: exercises the tuple (span) codes
def _mixed():
    return _make_hotloop("hotloop-mixed", ib_args=(8, 16), d_args=(1, 4))


def _timed_run(ts, fast: bool):
    # segment_kernel pinned off: these pairs isolate the window fast
    # path, and the suite/bus seconds stay comparable to pre-kernel
    # committed baselines; the kernel has its own paired cells below
    cfg = MachineConfig(n_procs=ts.n_procs, fast_path=fast, segment_kernel=False)
    system = System(ts, cfg, QueuingLockManager(), SEQUENTIAL)
    gc.collect()
    t0 = time.process_time()
    result = system.run()
    seconds = time.process_time() - t0
    return seconds, result, system.engine.dispatched_total


def _measure_pair(make_ts):
    """Best-of-REPS for fast and reference, interleaved so both modes
    see the same machine conditions."""
    ts = make_ts()
    _timed_run(ts, True)  # warm: imports, fast-path table build
    _timed_run(ts, False)
    best = {True: (9e9, None, 0), False: (9e9, None, 0)}
    for _ in range(REPS):
        for fast in (True, False):
            seconds, result, events = _timed_run(ts, fast)
            if seconds < best[fast][0]:
                best[fast] = (seconds, result, events)
    refs = sum(m.refs_processed for m in best[True][1].proc_metrics)
    assert refs == sum(m.refs_processed for m in best[False][1].proc_metrics)

    def mode(fast):
        seconds, _result, events = best[fast]
        return {
            "seconds": round(seconds, 4),
            "refs_per_sec": round(refs / seconds),
            "events_per_sec": round(events / seconds),
        }

    report = {
        "records": HOTLOOP_RECORDS,
        "refs": refs,
        "fast": mode(True),
        "reference": mode(False),
    }
    report["speedup"] = round(
        report["fast"]["refs_per_sec"] / report["reference"]["refs_per_sec"], 3
    )
    return report


def _measure_audit_cell(program: str):
    """One suite cell timed with and without the runtime invariant
    auditor (repro.audit).  The auditor's contract is <2x overhead: it
    must stay cheap enough to leave on in every CI simulation."""
    ts = generate_trace(program, scale=1.0, seed=1991)

    def run(audited: bool) -> float:
        cfg = MachineConfig(n_procs=ts.n_procs, audit=audited)
        system = System(ts, cfg, QueuingLockManager(), SEQUENTIAL)
        gc.collect()
        t0 = time.process_time()
        system.run()
        return time.process_time() - t0

    run(True)  # warm
    run(False)
    best = {True: 9e9, False: 9e9}
    for _ in range(3):
        for audited in (True, False):
            best[audited] = min(best[audited], run(audited))
    return {
        "program": program,
        "seconds_plain": round(best[False], 4),
        "seconds_audited": round(best[True], 4),
        "overhead": round(best[True] / best[False], 3),
    }


def _measure_bus_cell(program: str, baseline: dict | None):
    """One bus-bound suite cell timed with the contended-path fast path
    (``MachineConfig.bus_fast_path``) on and off, paired-adjacent.

    Off restores the committed-baseline implementation of the whole
    contended-path bundle, so ``speedup_paired`` is the end-to-end
    speedup of the bundle vs the committed baseline under identical
    machine conditions.  ``speedup_vs_baseline`` additionally compares
    against the frozen pre-bundle wall time recorded in the committed
    baseline (carried forward unchanged across regenerations); it spans
    machine windows, so it is reported but enforced only through the
    paired number."""
    ts = generate_trace(program, scale=1.0, seed=1991)

    def run(fast_bus: bool) -> float:
        cfg = MachineConfig(
            n_procs=ts.n_procs, bus_fast_path=fast_bus, segment_kernel=False
        )
        system = System(ts, cfg, QueuingLockManager(), SEQUENTIAL)
        gc.collect()
        t0 = time.process_time()
        system.run()
        return time.process_time() - t0

    run(True)  # warm
    run(False)
    best = {True: 9e9, False: 9e9}
    for _ in range(REPS):
        for fast_bus in (True, False):
            best[fast_bus] = min(best[fast_bus], run(fast_bus))

    # the frozen pre-bundle time: carried forward from the committed
    # baseline's bus cell if it has one, else seeded from the committed
    # suite cell seconds (the pre-bundle measurement of this program)
    frozen = None
    if baseline is not None:
        try:
            frozen = baseline["bus"][program]["baseline_seconds"]
        except KeyError:
            try:
                frozen = baseline["suite"][program]["seconds"]
            except KeyError:
                pass
    cell = {
        "program": program,
        "seconds_fast": round(best[True], 4),
        "seconds_reference": round(best[False], 4),
        "speedup_paired": round(best[False] / best[True], 3),
    }
    if frozen is not None:
        cell["baseline_seconds"] = frozen
        cell["speedup_vs_baseline"] = round(frozen / best[True], 3)
    return cell


#: the three kernel-cell modes: full production, production minus the
#: kernel (the window fast path still batch-retires the quiet loop),
#: and the record-by-record reference interpreter
_KERNEL_MODES = {
    "kernel": {},
    "fastpath": {"segment_kernel": False},
    "reference": {
        "fast_path": False,
        "bus_fast_path": False,
        "segment_kernel": False,
    },
}


def _measure_kernel_pair(make_ts):
    """One hot-loop trace timed in the three ``_KERNEL_MODES``,
    interleaved.  ``speedup_vs_reference`` (kernel vs the reference
    interpreter) is the end-to-end claim the 5x design floor enforces;
    ``speedup_vs_fastpath`` (kernel vs the already-optimized window
    fast path) isolates the kernel's own contribution on its home turf
    (a machine-quiet private loop it collapses nearly whole)."""
    ts = make_ts()

    def run(mode: str):
        cfg = MachineConfig(n_procs=ts.n_procs, **_KERNEL_MODES[mode])
        system = System(ts, cfg, QueuingLockManager(), SEQUENTIAL)
        gc.collect()
        t0 = time.process_time()
        result = system.run()
        seconds = time.process_time() - t0
        return seconds, result, system.kernel

    for mode in _KERNEL_MODES:  # warm: imports, table builds
        run(mode)
    best = {mode: (9e9, None, None) for mode in _KERNEL_MODES}
    for _ in range(REPS):
        for mode in _KERNEL_MODES:
            out = run(mode)
            if out[0] < best[mode][0]:
                best[mode] = out
    refs = {
        mode: sum(m.refs_processed for m in best[mode][1].proc_metrics)
        for mode in _KERNEL_MODES
    }
    assert len(set(refs.values())) == 1, refs
    kernel = best["kernel"][2]
    total = sum(len(t.records) for t in ts)
    cell = {
        "records": total,
        "segments": kernel.segments,
        "records_collapsed": kernel.records,
        "coverage": round(kernel.records / total, 4),
    }
    for mode in _KERNEL_MODES:
        cell[f"seconds_{mode}"] = round(best[mode][0], 4)
    t_kern = best["kernel"][0]
    cell["speedup_vs_reference"] = round(best["reference"][0] / t_kern, 3)
    cell["speedup_vs_fastpath"] = round(best["fastpath"][0] / t_kern, 3)
    return cell


#: the lock-zoo sweep: the most lock-bound suite program timed under
#: every scheme on the differential grid's lock axis (repro.testing.
#: LOCK_SCHEMES), full production configuration.  Watches for a manager
#: whose per-grant bookkeeping quietly turns contended cells quadratic.
LOCK_SWEEP_PROGRAM = "qsort"

#: contended-workload cells for the spin-phase collapse kernel: four
#: processors hammering one shared lock, each critical section a
#: private hit loop.  Two shapes -- grav-shaped (few long critical
#: sections) and pdsa-shaped (many short ones) -- under the two
#: spin-heavy signature kinds the kernel certifies: ticket (idle
#: signature, queue-parked waiters) and backoff (timer signature,
#: backed-off retries).  Each cell is a paired spin-on/off measurement;
#: the ENFORCE floor for ``speedup_spin`` is 3x.
SPIN_FLOOR = 3.0
SPIN_CELLS = {
    "spin_grav_ticket": ("spin-grav", "ticket", 20, 2000, 7),
    "spin_grav_backoff": ("spin-grav", "backoff", 20, 2000, 7),
    "spin_pdsa_ticket": ("spin-pdsa", "ticket", 40, 1000, 9),
    "spin_pdsa_backoff": ("spin-pdsa", "backoff", 40, 1000, 9),
}

SPIN_PROCS = 4
SPIN_SPAN = 64  # working-set lines per processor


def _make_contended(name: str, iters: int, hot: int, reads: int):
    """Four processors contending on one shared lock; the critical
    sections are dense hit loops over per-processor code and working
    sets.  The code sits at the top of the code region and the working
    sets at the bottom of the shared region: compact line addresses keep
    the kernel's columnar retirement on its dense-scatter path while
    code and data stay in their own regions."""
    from repro.trace.builder import TraceBuilder

    layout = AddressLayout(n_procs=SPIN_PROCS)
    lock = layout.alloc_lock()
    traces = []
    for p in range(SPIN_PROCS):
        b = TraceBuilder(p, program=name)
        code = SHARED_BASE - (p + 1) * 16 * 16
        base = layout.alloc_shared(SPIN_SPAN * 16)
        for j in range(SPIN_SPAN):  # warm: later reads all hit
            b.read(base + 16 * j)
        for _ in range(iters):
            b.lock(0, lock)
            for j in range(hot):
                b.block(1, 1, code + 16 * (j % 16))
                for k in range(reads):
                    b.read(base + 16 * ((j * reads + k) % SPIN_SPAN))
            b.unlock(0, lock)
        traces.append(b.finish())
    return TraceSet(traces, layout, program=name)


def _measure_spin_cell(program: str, scheme: str, iters: int, hot: int, reads: int):
    """One contended cell timed with ``spin_kernel`` on and off,
    paired-adjacent best of 3.  Off is the full pre-spin production
    configuration (window fast path, bus fast path and segment kernel
    all on), so ``speedup_spin`` isolates the spin-phase collapse
    kernel's own contribution on a lock-wait-bound workload."""
    from repro.sync import get_lock_manager

    ts = _make_contended(program, iters, hot, reads)

    def run(spin: bool):
        cfg = MachineConfig(n_procs=SPIN_PROCS, spin_kernel=spin)
        system = System(ts, cfg, get_lock_manager(scheme), SEQUENTIAL)
        gc.collect()
        t0 = time.process_time()
        result = system.run()
        seconds = time.process_time() - t0
        return seconds, result, system.kernel

    run(True)  # warm
    run(False)
    best = {True: (9e9, None, None), False: (9e9, None, None)}
    for _ in range(3):
        for spin in (True, False):
            out = run(spin)
            if out[0] < best[spin][0]:
                best[spin] = out
    refs = sum(m.refs_processed for m in best[True][1].proc_metrics)
    assert refs == sum(m.refs_processed for m in best[False][1].proc_metrics)
    kernel = best[True][2]
    return {
        "program": program,
        "scheme": scheme,
        "refs": refs,
        "seconds": round(best[True][0], 4),
        "seconds_nospin": round(best[False][0], 4),
        "refs_per_sec": round(refs / best[True][0]),
        "speedup_spin": round(best[False][0] / best[True][0], 3),
        "spin_segments": kernel.spin_segments,
        "spin_waiters": kernel.spin_waiters,
    }


def _measure_lock_cells():
    """The lock-zoo sweep plus the paired spin-kernel contended cells;
    every cell carries ``refs_per_sec`` so the generic no-regression
    check covers the whole section."""
    from repro.sync import get_lock_manager
    from repro.testing import LOCK_SCHEMES

    ts = generate_trace(LOCK_SWEEP_PROGRAM, scale=1.0, seed=1991)

    def run(scheme: str):
        cfg = MachineConfig(n_procs=ts.n_procs)
        system = System(ts, cfg, get_lock_manager(scheme), SEQUENTIAL)
        gc.collect()
        t0 = time.process_time()
        result = system.run()
        return time.process_time() - t0, result

    cells = {}
    for scheme in LOCK_SCHEMES:
        run(scheme)  # warm
        best, result = 9e9, None
        for _ in range(3):
            seconds, r = run(scheme)
            if seconds < best:
                best, result = seconds, r
        refs = sum(m.refs_processed for m in result.proc_metrics)
        cells[scheme] = {
            "seconds": round(best, 4),
            "refs_per_sec": round(refs / best),
            "transfers": result.lock_stats.transfers,
        }
    for name, (program, scheme, iters, hot, reads) in SPIN_CELLS.items():
        cells[name] = _measure_spin_cell(program, scheme, iters, hot, reads)
    return cells


def _measure_suite_cell(program: str):
    ts = generate_trace(program, scale=1.0, seed=1991)
    _timed_run(ts, True)  # warm
    best = 9e9
    result = events = None
    for _ in range(3):
        seconds, r, e = _timed_run(ts, True)
        if seconds < best:
            best, result, events = seconds, r, e
    refs = sum(m.refs_processed for m in result.proc_metrics)
    return {
        "seconds": round(best, 4),
        "refs_per_sec": round(refs / best),
        "events_per_sec": round(events / best),
    }


def test_hotpath_throughput():
    baseline = None
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)

    report = {
        "protocol": (
            f"process_time, adjacent fast/reference runs, best of {REPS}; "
            "hot loops are 400k-record private working sets (single-line "
            "word accesses / mixed with 8-16 word iblocks); suite cells "
            "are (queuing, SC) at scale 1.0 with the fast path on; bus "
            "cells time the same (queuing, SC) cell with bus_fast_path "
            "on/off paired-adjacent; kernel cells time the hot loops "
            "in three interleaved modes (production / no kernel / "
            "reference interpreter); the audit cell times the same run "
            "with the invariant auditor attached (raise mode), best of 3; "
            "lock cells time the qsort (SC, scale 1.0) cell under every "
            "scheme on the differential grid's lock axis, best of 3; "
            "spin cells time 4-processor contended hot loops (grav-shaped "
            "20x2000 and pdsa-shaped 40x1000 critical sections) under "
            "ticket and backoff with spin_kernel on/off paired-adjacent, "
            "best of 3"
        ),
        "hotloop_single": _measure_pair(_single_line),
        "hotloop_mixed": _measure_pair(_mixed),
        "suite": {p: _measure_suite_cell(p) for p in BENCHMARK_ORDER},
        "bus": {p: _measure_bus_cell(p, baseline) for p in BUS_CELLS},
        "locks": _measure_lock_cells(),
        "kernel": {
            "hotloop_single": _measure_kernel_pair(_single_line),
            "hotloop_mixed": _measure_kernel_pair(_mixed),
        },
        "audit": _measure_audit_cell("pverify"),
    }

    OUTPUT_DIR.mkdir(exist_ok=True)
    out = OUTPUT_DIR / "BENCH_hotpath.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    # sanity floors that hold on any machine
    for key in ("hotloop_single", "hotloop_mixed"):
        assert report[key]["fast"]["refs_per_sec"] > 100_000, report[key]

    if not ENFORCE:
        return

    # perf smoke (CI): the fast paths must still pay for themselves at home...
    problems = []
    for key in ("hotloop_single", "hotloop_mixed"):
        if report[key]["speedup"] < 1 - TOLERANCE:
            problems.append(
                f"{key}: fast path {report[key]['speedup']}x vs reference"
            )
    for prog, cell in report["bus"].items():
        if cell["speedup_paired"] < 1 - TOLERANCE:
            problems.append(
                f"bus/{prog}: contended fast path {cell['speedup_paired']}x "
                "vs its reference mode"
            )
    # ...the segment kernel must hold its 5x design floor on quiet loops
    # (paired ratios are machine-insensitive: same process, adjacent),
    # must pay for itself over the window fast path alone, and must keep
    # collapsing nearly the whole quiet trace...
    for name, cell in report["kernel"].items():
        if cell["speedup_vs_reference"] < 5.0:
            problems.append(
                f"kernel/{name}: {cell['speedup_vs_reference']}x vs the "
                "reference interpreter is below the 5x design floor"
            )
        if cell["speedup_vs_fastpath"] < 1 - TOLERANCE:
            problems.append(
                f"kernel/{name}: {cell['speedup_vs_fastpath']}x vs the "
                "window fast path -- the kernel no longer pays for itself"
            )
        if cell["coverage"] < 0.9:
            problems.append(
                f"kernel/{name}: collapsed only {cell['coverage']:.0%} of a "
                "machine-quiet trace"
            )
    # ...the spin-phase collapse kernel must hold its 3x design floor on
    # the contended cells (paired ratios: same process, adjacent runs)
    # and must actually be collapsing waiter-bearing phases...
    for name in SPIN_CELLS:
        cell = report["locks"][name]
        if cell["speedup_spin"] < SPIN_FLOOR:
            problems.append(
                f"locks/{name}: {cell['speedup_spin']}x vs the spin-off "
                f"production configuration is below the {SPIN_FLOOR}x "
                "design floor"
            )
        if cell["spin_segments"] == 0:
            problems.append(
                f"locks/{name}: the spin kernel never collapsed a phase "
                "on a lock-wait-bound workload"
            )
    # ...the auditor must stay within its advertised overhead budget...
    if report["audit"]["overhead"] > 2.0:
        problems.append(
            f"audit: {report['audit']['overhead']}x overhead exceeds the 2x budget"
        )
    # ...and nothing may regress vs the committed baseline
    if baseline is not None:
        for key in ("hotloop_single", "hotloop_mixed"):
            base = baseline[key]["fast"]["refs_per_sec"]
            got = report[key]["fast"]["refs_per_sec"]
            if got < base * (1 - TOLERANCE):
                problems.append(
                    f"{key}: {got} refs/sec is >{TOLERANCE:.0%} below the "
                    f"committed baseline {base}"
                )
        for prog, cell in report["bus"].items():
            base_cell = baseline.get("bus", {}).get(prog)
            if base_cell is not None:
                base = base_cell["speedup_paired"]
                if cell["speedup_paired"] < base * (1 - TOLERANCE):
                    problems.append(
                        f"bus/{prog}: paired speedup {cell['speedup_paired']}x "
                        f"is >{TOLERANCE:.0%} below the committed baseline "
                        f"{base}x"
                    )
        for name, cell in report["kernel"].items():
            base_cell = baseline.get("kernel", {}).get(name)
            if base_cell is not None:
                base = base_cell["speedup_vs_reference"]
                if cell["speedup_vs_reference"] < base * (1 - TOLERANCE):
                    problems.append(
                        f"kernel/{name}: speedup vs reference "
                        f"{cell['speedup_vs_reference']}x is >{TOLERANCE:.0%} "
                        f"below the committed baseline {base}x"
                    )
        # ...no lock scheme may regress on the contended sweep cell
        for scheme, cell in report["locks"].items():
            base_cell = baseline.get("locks", {}).get(scheme)
            if base_cell is not None:
                base = base_cell["refs_per_sec"]
                if cell["refs_per_sec"] < base * (1 - TOLERANCE):
                    problems.append(
                        f"locks/{scheme}: {cell['refs_per_sec']} refs/sec is "
                        f">{TOLERANCE:.0%} below the committed baseline {base}"
                    )
        # canonical-baseline sync check: the committed file must carry the
        # same sections/cells this benchmark produces (one canonical file;
        # benchmarks/output/ is scratch).  "tracegen" belongs to
        # test_tracegen_throughput.py and "service" to
        # test_service_latency.py; each syncs its own section.
        missing = sorted(set(report) - set(baseline))
        stale = sorted(set(baseline) - set(report) - {"tracegen", "service"})
        for section in ("suite", "bus", "kernel", "locks"):
            missing += [
                f"{section}.{k}"
                for k in sorted(
                    set(report[section]) - set(baseline.get(section, {}))
                )
            ]
            stale += [
                f"{section}.{k}"
                for k in sorted(
                    set(baseline.get(section, {})) - set(report[section])
                )
            ]
        if missing or stale:
            problems.append(
                "committed baseline BENCH_hotpath.json is out of sync with "
                f"this benchmark (missing: {missing or 'none'}, stale: "
                f"{stale or 'none'}); regenerate it on a quiet machine and "
                "copy benchmarks/output/BENCH_hotpath.json over the root file"
            )
    else:
        problems.append(f"committed baseline {BASELINE_PATH} is missing")
    if problems:
        pytest.fail(
            "hot-path throughput regression:\n  " + "\n  ".join(problems),
            pytrace=False,
        )
