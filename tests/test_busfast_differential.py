"""Differential acceptance for the contended-path (bus) fast path.

The bus fast path -- O(1) bitmask arbitration, fused
grant->fire->release chaining, inline event scheduling, the fast engine
dispatch loop and the fused completion executors -- must be a pure
*speed* change: with ``MachineConfig.bus_fast_path`` off, the simulator
byte-for-byte restores the committed-baseline behaviour, and the two
modes must serialize identically.  ``tests/test_differential.py``
enforces this at full scale on the whole grid; this file runs the two
most bus-bound programs at reduced scale, where every cell is cheap
enough to also run under ``HeapEngine`` and the auditor.

The audit cell additionally proves the bus fast path invariant-clean:
the runtime auditor (busproto + accounting checkers) rides the fast
run in collect mode and must report zero violations while the unaudited
reference run still serializes identically.
"""

import pytest

from repro.machine.config import CacheConfig, MachineConfig, MemoryConfig
from repro.machine.engine import HeapEngine
from repro.testing import LOCK_SCHEMES, MODELS, differential_check, run_cell
from repro.workloads import generate_trace

#: the two most bus-transaction-dense suite programs (see
#: docs/performance.md): their cells spend the largest share of wall
#: time in the arbitration/transaction cascade this fast path collapses
BUS_HEAVY = ("qsort", "pdsa")
SCALE = 0.25


@pytest.mark.parametrize("program", BUS_HEAVY)
def test_bus_fast_path_byte_identical(program):
    reports = differential_check(
        programs=(program,),
        scale=SCALE,
        seed=1991,
    )
    assert len(reports) == len(LOCK_SCHEMES) * len(MODELS)
    bad = [r for r in reports if not r.equal]
    if bad:
        detail = "\n".join(f"{r.label}:\n  " + "\n  ".join(r.diffs) for r in bad)
        pytest.fail(
            f"bus fast path diverged on {len(bad)} cell(s):\n{detail}",
            pytrace=False,
        )


def test_bus_fast_path_audit_clean():
    """The auditor rides the bus-fast run and must stay silent."""
    ts = generate_trace("qsort", scale=SCALE, seed=1991)
    report = run_cell(
        ts,
        lock_scheme="queuing",
        consistency="sc",
        audit=True,
    )
    assert report.equal, "\n".join(report.diffs)
    assert report.violations == 0
    assert report.audit_checks > 0  # anti-vacuity: the checkers ran


def test_bus_fast_path_under_heap_engine():
    """With HeapEngine the inline-scheduling and fast-dispatch arms are
    ineligible and every guard must fall back to the reference
    scheduling calls -- the cell still has to agree byte-for-byte."""
    ts = generate_trace("pdsa", scale=SCALE, seed=1991)
    report = run_cell(
        ts,
        lock_scheme="ttas",
        consistency="wo",
        engine_factory=HeapEngine,
    )
    assert report.equal, "\n".join(report.diffs)


#: the machines the fast bundle's chain branches on, beyond the paper's:
#: write-back reclaim and buffer-space waits (small caches, a one-entry
#: cache--bus buffer), the write-through and write-update executors,
#: upgrade conversions, and memory-buffer back-pressure
NON_DEFAULT_MACHINES = {
    "writethrough": {"cache": CacheConfig(write_policy="writethrough")},
    "update": {"coherence": "update"},
    "1k-2way": {"cache": CacheConfig(size_bytes=1024, assoc=2)},
    "1k-4way": {"cache": CacheConfig(size_bytes=1024, assoc=4)},
    "buffer-1": {"cachebus_buffer_depth": 1},
    "membuf-1": {"memory": MemoryConfig(input_buffer=1, output_buffer=1)},
}
MACHINE_PROGRAMS = ("qsort", "pdsa")
MACHINE_LOCKS = ("queuing", "ttas", "backoff")


@pytest.fixture(scope="module")
def small_traces():
    return {p: generate_trace(p, scale=0.05, seed=3) for p in MACHINE_PROGRAMS}


@pytest.mark.parametrize("machine", sorted(NON_DEFAULT_MACHINES))
def test_bus_fast_path_byte_identical_on_other_machines(machine, small_traces):
    """Both bus bundles serialize identically on every non-default
    machine; the auditor rides one cell per machine and stays silent."""
    bad, audited = [], 0
    for program, ts in small_traces.items():
        config = MachineConfig(n_procs=ts.n_procs, **NON_DEFAULT_MACHINES[machine])
        for scheme in MACHINE_LOCKS:
            for model in MODELS:
                audit = program == "qsort" and (scheme, model) == ("ttas", "wo")
                report = run_cell(
                    ts, lock_scheme=scheme, consistency=model,
                    config=config, audit=audit,
                )
                if not report.equal:
                    bad.append(f"{report.label}:\n  " + "\n  ".join(report.diffs))
                if audit:
                    audited += 1
                    assert report.violations == 0, report.label
                    assert report.audit_checks > 0
    assert audited == 1
    assert not bad, f"{machine}: {len(bad)} cell(s) diverged:\n" + "\n".join(bad)
