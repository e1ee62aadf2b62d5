"""Hot-path throughput benchmark and perf-smoke gate.

Not a paper artifact: this watches the simulator's speed (see
docs/performance.md).  Each suite program's (queuing, SC) cell is timed
in the production configuration; the two most bus-bound suite cells
(qsort, pdsa) are additionally timed with ``bus_fast_path`` on and off
(the *contended path* cells); the most lock-bound program is timed
under every scheme on the differential grid's lock axis (the ``locks``
cells); and one cell is timed with and without the runtime invariant
auditor.  Throughput is reported as trace references per second and
engine events per second.

Measurement protocol: the fast/reference runs of each bus cell are timed
*adjacently* (same process, alternating) with ``time.process_time`` and
best-of-N is kept per mode, because wall-clock drift between separated
runs on a shared machine easily exceeds the effect being measured.  The
reference mode restores the committed-baseline implementation of the
whole contended-path bundle (arbiter, event chaining, engine dispatch,
LRU touch, issue path), so the paired ratio *is* the end-to-end speedup
of the bundle vs the committed baseline, measured under identical
machine conditions.

The committed ``BENCH_hotpath.json`` at the repository root is the ONE
canonical baseline; the run's report is written to the scratch file
``benchmarks/output/BENCH_hotpath.json`` (not tracked), and the enforce
mode fails if the scratch report's structure has drifted from the
committed baseline (a reminder to re-sync it).

The lock cells are paired too: each run of a scheme's qsort cell sits
between two runs of a lock-free yardstick (topopt, whose trace holds no
sync record), and the median of the cell's time over the mean of its
two brackets is the gated number.  An unpaired refs/sec reading moves
with the machine window it was taken in; the ratio largely does not.

Perf smoke: when ``REPRO_PERF_ENFORCE`` is set (the CI perf-smoke job
does this), the test fails if the bus fast path is more than 25%
*slower* than its reference mode on its own home turf, if the bus
cells' paired speedup regresses more than 25% below the baseline's
recorded speedup, if a lock cell's time ratio to its yardstick rises
more than 25% above the committed ratio, or if the auditor costs more
than 2x.  Every gate is a ratio of timings taken side by side, so a
slowdown in code both sides run (``Processor._run``, ``Cache``,
``Engine``) moves each ratio's two terms together and passes: this
benchmark does not see it.  ``perfbench``'s ``grid_cold`` workload,
run at the parent commit and at the change, does.
Regenerate the root baseline on a quiet machine with::

    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_throughput.py -q
    cp benchmarks/output/BENCH_hotpath.json BENCH_hotpath.json
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.consistency import SEQUENTIAL
from repro.machine.config import MachineConfig
from repro.machine.system import System
from repro.sync import QueuingLockManager
from repro.workloads.registry import BENCHMARK_ORDER, generate_trace

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = Path(__file__).parent / "output"
BASELINE_PATH = ROOT / "BENCH_hotpath.json"

#: paired repetitions per (trace, mode); raise for quieter numbers
REPS = int(os.environ.get("REPRO_PERF_REPS", "5"))
ENFORCE = bool(os.environ.get("REPRO_PERF_ENFORCE"))
#: allowed regression vs the committed baseline
TOLERANCE = 0.25

#: the two most bus-bound suite cells: the contended-path (bus fast
#: path) cells time exactly these
BUS_CELLS = ("qsort", "pdsa")


def _timed_run(ts):
    cfg = MachineConfig(n_procs=ts.n_procs)
    system = System(ts, cfg, QueuingLockManager(), SEQUENTIAL)
    gc.collect()
    t0 = time.process_time()
    result = system.run()
    seconds = time.process_time() - t0
    return seconds, result, system.engine.dispatched_total


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
        cfg = MachineConfig(n_procs=ts.n_procs, bus_fast_path=fast_bus)
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


#: the lock-zoo sweep: the most lock-bound suite program timed under
#: every scheme on the differential grid's lock axis (repro.testing.
#: LOCK_SCHEMES), full production configuration.  Watches for a manager
#: whose per-grant bookkeeping quietly turns contended cells quadratic.
LOCK_SWEEP_PROGRAM = "qsort"
#: the lock cells' yardstick: a program whose trace holds no sync record,
#: so no lock manager ever runs in it.  Each lock cell run is bracketed
#: by two yardstick runs, and the gate reads the cell's time over the
#: mean of its two brackets, which cancels the speed of the machine
#: window the three ran in.
LOCK_YARDSTICK_PROGRAM = "topopt"
#: bracketed runs per lock cell (odd: the gate reads their median)
LOCK_RUNS = 5


def _measure_lock_cells():
    """The lock-zoo sweep; every cell carries ``time_ratio`` (the median,
    over ``LOCK_RUNS`` runs, of the cell's time over the mean time of the
    yardstick runs just before and just after it) for the no-regression
    check, and ``refs_per_sec`` of its best run for the report."""
    from repro.sync import get_lock_manager
    from repro.testing import LOCK_SCHEMES
    from repro.trace import sync_free

    ts = generate_trace(LOCK_SWEEP_PROGRAM, scale=1.0, seed=1991)
    yard = generate_trace(LOCK_YARDSTICK_PROGRAM, scale=1.0, seed=1991)
    assert sync_free(yard), "the yardstick must run no lock manager"

    def run(traceset, scheme: str):
        cfg = MachineConfig(n_procs=traceset.n_procs)
        system = System(traceset, cfg, get_lock_manager(scheme), SEQUENTIAL)
        gc.collect()
        t0 = time.process_time()
        result = system.run()
        return time.process_time() - t0, result

    cells = {}
    for scheme in LOCK_SCHEMES:
        run(ts, scheme)  # warm
        before = run(yard, scheme)[0]
        best, result, ratios = 9e9, None, []
        for _ in range(LOCK_RUNS):
            seconds, r = run(ts, scheme)
            after = run(yard, scheme)[0]
            ratios.append(seconds / ((before + after) / 2))
            before = after
            if seconds < best:
                best, result = seconds, r
        refs = sum(m.refs_processed for m in result.proc_metrics)
        cells[scheme] = {
            "seconds": round(best, 4),
            "time_ratio": round(sorted(ratios)[LOCK_RUNS // 2], 3),
            "refs_per_sec": round(refs / best),
            "transfers": result.lock_stats.transfers,
        }
    return cells


def _measure_suite_cell(program: str):
    ts = generate_trace(program, scale=1.0, seed=1991)
    _timed_run(ts)  # warm
    best = 9e9
    result = events = None
    for _ in range(3):
        seconds, r, e = _timed_run(ts)
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
            "suite cells are (queuing, SC) at scale 1.0 in the production "
            "configuration, best of 3; bus cells time the same (queuing, "
            "SC) cell with bus_fast_path on/off paired-adjacent; the audit "
            "cell times the same run with the invariant auditor attached "
            "(raise mode), best of 3; lock cells time the qsort (SC, "
            "scale 1.0) cell under every scheme on the differential "
            f"grid's lock axis, {LOCK_RUNS} runs each bracketed by runs "
            "of the lock-free topopt yardstick, gating the median ratio of "
            "a run's time to its brackets' mean"
        ),
        "suite": {p: _measure_suite_cell(p) for p in BENCHMARK_ORDER},
        "bus": {p: _measure_bus_cell(p, baseline) for p in BUS_CELLS},
        "locks": _measure_lock_cells(),
        "audit": _measure_audit_cell("pverify"),
    }

    OUTPUT_DIR.mkdir(exist_ok=True)
    out = OUTPUT_DIR / "BENCH_hotpath.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    if not ENFORCE:
        return

    # perf smoke (CI): the bus fast path must still pay for itself at home...
    problems = []
    for prog, cell in report["bus"].items():
        if cell["speedup_paired"] < 1 - TOLERANCE:
            problems.append(
                f"bus/{prog}: contended fast path {cell['speedup_paired']}x "
                "vs its reference mode"
            )
    # ...the auditor must stay within its advertised overhead budget...
    if report["audit"]["overhead"] > 2.0:
        problems.append(
            f"audit: {report['audit']['overhead']}x overhead exceeds the 2x budget"
        )
    # ...and nothing may regress vs the committed baseline
    if baseline is not None:
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
        # ...no lock scheme may regress on the contended sweep cell,
        # measured against the lock-free yardstick timed beside it
        for scheme, cell in report["locks"].items():
            base_cell = baseline.get("locks", {}).get(scheme)
            if base_cell is not None:
                base = base_cell["time_ratio"]
                if cell["time_ratio"] > base * (1 + TOLERANCE):
                    problems.append(
                        f"locks/{scheme}: {cell['time_ratio']}x the "
                        f"{LOCK_YARDSTICK_PROGRAM} yardstick's time is "
                        f">{TOLERANCE:.0%} above the committed baseline {base}x"
                    )
        # canonical-baseline sync check: the committed file must carry the
        # same sections/cells this benchmark produces (one canonical file;
        # benchmarks/output/ is scratch).  "tracegen" belongs to
        # test_tracegen_throughput.py and "service" to
        # test_service_latency.py; each syncs its own section.
        missing = sorted(set(report) - set(baseline))
        stale = sorted(set(baseline) - set(report) - {"tracegen", "service"})
        for section in ("suite", "bus", "locks"):
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
