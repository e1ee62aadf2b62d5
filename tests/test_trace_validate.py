"""Tests for trace validation: every invariant violation is caught."""

import re

import numpy as np
import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.layout import AddressLayout
from repro.trace.records import (
    BARRIER,
    IBLOCK,
    LOCK,
    READ,
    RECORD_DTYPE,
    UNLOCK,
    Trace,
    TraceSet,
)
from repro.trace.validate import (
    TraceValidationError,
    validate_trace,
    validate_traceset,
)


def raw_trace(rows, proc=0):
    rec = np.zeros(len(rows), dtype=RECORD_DTYPE)
    for i, (kind, addr, arg, cycles) in enumerate(rows):
        rec[i] = (kind, addr, arg, cycles)
    return Trace(rec, proc=proc)


CODE = 0x2000
SHARED = 0x1000_0000
LOCKA = 0x2000_0000
PRIV0 = 0x8000_0000
PRIV1 = 0x8100_0000


class TestValidTraces:
    def test_good_trace_passes(self):
        t = raw_trace(
            [
                (IBLOCK, CODE, 4, 8),
                (READ, SHARED, 2, 0),
                (LOCK, LOCKA, 1, 0),
                (READ, SHARED, 1, 0),
                (UNLOCK, LOCKA, 1, 0),
            ]
        )
        validate_trace(t)

    def test_builder_output_always_passes(self):
        layout = AddressLayout(2)
        b = TraceBuilder(0)
        code = layout.alloc_code(64)
        la = layout.alloc_lock()
        b.block(3, 9, code)
        b.lock(5, la)
        b.write(layout.alloc_shared(32), reps=4)
        b.unlock(5, la)
        validate_trace(b.finish())


class TestInvalidRecords:
    def test_unknown_kind(self):
        t = raw_trace([(99, CODE, 1, 1)])
        with pytest.raises(TraceValidationError, match="unknown record kinds"):
            validate_trace(t)

    def test_zero_instruction_block(self):
        t = raw_trace([(IBLOCK, CODE, 0, 5)])
        with pytest.raises(TraceValidationError, match="zero instructions"):
            validate_trace(t)

    def test_zero_cycle_block(self):
        t = raw_trace([(IBLOCK, CODE, 2, 0)])
        with pytest.raises(TraceValidationError, match="zero cycles"):
            validate_trace(t)

    def test_cycles_on_data_record(self):
        t = raw_trace([(READ, SHARED, 1, 3)])
        with pytest.raises(TraceValidationError, match="carries cycles"):
            validate_trace(t)

    def test_zero_reps(self):
        t = raw_trace([(READ, SHARED, 0, 0)])
        with pytest.raises(TraceValidationError, match="zero repetitions"):
            validate_trace(t)

    def test_block_outside_code(self):
        t = raw_trace([(IBLOCK, SHARED, 2, 4)])
        with pytest.raises(TraceValidationError, match="outside code region"):
            validate_trace(t)

    def test_data_ref_into_code(self):
        t = raw_trace([(READ, CODE, 1, 0)])
        with pytest.raises(TraceValidationError, match="into code region"):
            validate_trace(t)


class TestLockPairing:
    def test_lock_at_non_lock_address(self):
        t = raw_trace([(LOCK, SHARED, 1, 0), (UNLOCK, SHARED, 1, 0)])
        with pytest.raises(TraceValidationError, match="non-lock address"):
            validate_trace(t)

    def test_reacquire(self):
        t = raw_trace([(LOCK, LOCKA, 1, 0), (LOCK, LOCKA, 1, 0)])
        with pytest.raises(TraceValidationError, match="re-acquired"):
            validate_trace(t)

    def test_release_unheld(self):
        t = raw_trace([(UNLOCK, LOCKA, 1, 0)])
        with pytest.raises(TraceValidationError, match="released while not held"):
            validate_trace(t)

    def test_dangling_hold(self):
        t = raw_trace([(LOCK, LOCKA, 1, 0)])
        with pytest.raises(TraceValidationError, match="ends holding"):
            validate_trace(t)

    def test_two_addresses_for_one_lock(self):
        t = raw_trace(
            [
                (LOCK, LOCKA, 1, 0),
                (UNLOCK, LOCKA, 1, 0),
                (LOCK, LOCKA + 16, 1, 0),
                (UNLOCK, LOCKA + 16, 1, 0),
            ]
        )
        with pytest.raises(TraceValidationError, match="two addresses"):
            validate_trace(t)


#: one trace per pairing fault; each names its first bad record
MALFORMED = {
    "re-acquire": [(LOCK, LOCKA, 1, 0), (LOCK, LOCKA, 1, 0), (UNLOCK, LOCKA, 1, 0)],
    "unheld-release": [(IBLOCK, CODE, 4, 8), (UNLOCK, LOCKA, 1, 0)],
    "dangling-hold": [(LOCK, LOCKA, 1, 0), (IBLOCK, CODE, 4, 8)],
    "barrier-while-holding": [
        (LOCK, LOCKA, 1, 0),
        (BARRIER, 0, 2, 0),
        (UNLOCK, LOCKA, 1, 0),
    ],
}


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_every_lock_consumer_raises_the_same_error(fault):
    """Validation, the ideal statistics, the lock profiles and the
    contention report pair locks through one index, so a malformed
    trace fails all of them with one message."""
    from repro.sync.predict import contention_report, profile_locks
    from repro.trace.stats import compute_trace_stats

    trace = raw_trace(MALFORMED[fault])
    ts = TraceSet([trace], AddressLayout(1), program="x")
    with pytest.raises(TraceValidationError, match=r"^record \d+: ") as first:
        validate_trace(trace)
    message = f"^{re.escape(str(first.value))}$"
    for consume in (
        lambda: compute_trace_stats(trace),
        lambda: profile_locks(ts),
        lambda: contention_report(ts),
    ):
        with pytest.raises(TraceValidationError, match=message):
            consume()


class TestCrossProcessor:
    def _ts(self, traces):
        return TraceSet(traces, AddressLayout(len(traces)), program="x")

    def test_noncontiguous_procs(self):
        t0 = raw_trace([(READ, SHARED, 1, 0)], proc=0)
        t2 = raw_trace([(READ, SHARED, 1, 0)], proc=2)
        with pytest.raises(TraceValidationError, match="not contiguous"):
            validate_traceset(self._ts([t0, t2]))

    def test_lock_address_mismatch_across_procs(self):
        t0 = raw_trace([(LOCK, LOCKA, 1, 0), (UNLOCK, LOCKA, 1, 0)], proc=0)
        t1 = raw_trace([(LOCK, LOCKA + 16, 1, 0), (UNLOCK, LOCKA + 16, 1, 0)], proc=1)
        with pytest.raises(TraceValidationError, match="lock 1 has address"):
            validate_traceset(self._ts([t0, t1]))

    def test_foreign_private_reference(self):
        t0 = raw_trace([(READ, PRIV1, 1, 0)], proc=0)  # proc 0 touching proc 1's region
        t1 = raw_trace([(READ, PRIV1, 1, 0)], proc=1)
        with pytest.raises(TraceValidationError, match="private region"):
            validate_traceset(self._ts([t0, t1]))

    def test_mismatched_barrier_counts(self):
        t0 = raw_trace([(BARRIER, 0, 1, 0)], proc=0)
        t1 = raw_trace([(READ, SHARED, 1, 0)], proc=1)
        with pytest.raises(TraceValidationError, match="barrier"):
            validate_traceset(self._ts([t0, t1]))

    def test_matching_barriers_pass(self):
        t0 = raw_trace([(BARRIER, 0, 1, 0)], proc=0)
        t1 = raw_trace([(BARRIER, 0, 1, 0)], proc=1)
        validate_traceset(self._ts([t0, t1]))

    def test_all_generated_workloads_validate(self):
        from repro.workloads import BENCHMARK_ORDER, generate_trace

        for name in BENCHMARK_ORDER:
            validate_traceset(generate_trace(name, scale=0.05))
