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
