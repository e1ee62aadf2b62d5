"""Failure-injection tests: malformed inputs and abuse of the public
API must fail loudly, never hang or corrupt results."""

import numpy as np
import pytest

from repro.consistency import SEQUENTIAL
from repro.machine.system import System
from repro.sync import QueuingLockManager, TestAndTestAndSetLockManager
from repro.trace.layout import AddressLayout
from repro.trace.records import LOCK, READ, RECORD_DTYPE, UNLOCK, Trace, TraceSet
from tests.conftest import tiny_machine


def raw_traceset(rows_per_proc, program="abuse"):
    layout = AddressLayout(len(rows_per_proc))
    traces = []
    for p, rows in enumerate(rows_per_proc):
        rec = np.zeros(len(rows), dtype=RECORD_DTYPE)
        for i, row in enumerate(rows):
            rec[i] = row
        traces.append(Trace(rec, proc=p, program=program))
    return TraceSet(traces, layout, program=program)


LOCKA = 0x2000_0000
SH = 0x1000_0000


class TestMalformedTraces:
    def test_unlock_without_lock_raises(self):
        ts = raw_traceset([[(UNLOCK, LOCKA, 1, 0)]])
        system = System(ts, tiny_machine(1), QueuingLockManager(), SEQUENTIAL)
        with pytest.raises(RuntimeError, match="owned by"):
            system.run()

    def test_ttas_release_without_hold_raises(self):
        ts = raw_traceset([[(UNLOCK, LOCKA, 1, 0)]])
        system = System(ts, tiny_machine(1), TestAndTestAndSetLockManager(), SEQUENTIAL)
        with pytest.raises(RuntimeError):
            system.run()

    def test_unknown_record_kind_raises(self):
        ts = raw_traceset([[(99, SH, 1, 0)]])
        system = System(ts, tiny_machine(1), QueuingLockManager(), SEQUENTIAL)
        with pytest.raises(ValueError, match="unknown record kind"):
            system.run()

    def test_lock_order_inversion_detected_as_deadlock(self):
        """Cyclic acquisition order across processors: the simulator
        must report deadlock, not hang."""
        p0 = [
            (LOCK, LOCKA, 1, 0),
            (LOCK, LOCKA + 16, 2, 0),
            (UNLOCK, LOCKA + 16, 2, 0),
            (UNLOCK, LOCKA, 1, 0),
        ]
        p1 = [
            (LOCK, LOCKA + 16, 2, 0),
            (LOCK, LOCKA, 1, 0),
            (UNLOCK, LOCKA, 1, 0),
            (UNLOCK, LOCKA + 16, 2, 0),
        ]
        # interleave deterministically: both acquire their first lock
        # before wanting the second (no work between, so both enqueue)
        ts = raw_traceset([p0, p1])
        system = System(ts, tiny_machine(2), QueuingLockManager(), SEQUENTIAL)
        with pytest.raises(RuntimeError, match="deadlock"):
            system.run()


class TestAPIAbuse:
    def test_system_is_single_use(self):
        ts = raw_traceset([[(READ, SH, 1, 0)]])
        system = System(ts, tiny_machine(1), QueuingLockManager(), SEQUENTIAL)
        system.run()
        with pytest.raises(RuntimeError, match="single-use"):
            system.run()

    def test_proc_count_mismatch_adapts(self):
        ts = raw_traceset([[(READ, SH, 1, 0)]] * 3)
        system = System(ts, tiny_machine(8), QueuingLockManager(), SEQUENTIAL)
        result = system.run()
        assert result.n_procs == 3

    def test_max_events_guard_stops_runaway(self):
        ts = raw_traceset([[(READ, SH + 16 * i, 1, 0) for i in range(50)]])
        system = System(
            ts, tiny_machine(1), QueuingLockManager(), SEQUENTIAL, max_events=10
        )
        with pytest.raises(RuntimeError, match="exceeded"):
            system.run()


class TestCorruptTraceFiles:
    def test_truncated_file_rejected(self, tmp_path):
        from repro.trace.encode import load_traceset, save_traceset
        from repro.workloads import generate_trace

        path = tmp_path / "t.npz"
        save_traceset(generate_trace("fullconn", scale=0.02), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):
            load_traceset(path)

    def test_garbage_file_rejected(self, tmp_path):
        from repro.trace.encode import load_traceset

        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an npz archive at all")
        with pytest.raises(Exception):
            load_traceset(path)

    def test_missing_processor_entry_rejected(self, tmp_path):
        import numpy as np

        from repro.trace.encode import load_traceset, save_traceset
        from repro.workloads import generate_trace

        path = tmp_path / "t.npz"
        ts = generate_trace("fullconn", scale=0.02)
        save_traceset(ts, path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        del arrays["proc3"]
        np.savez(path, **arrays)
        with pytest.raises(KeyError):
            load_traceset(path)

    def test_unheld_release_rejected_naming_the_record(self, tmp_path):
        """A well-encoded file whose records break a trace invariant is
        refused at load, before it can reach the simulator."""
        import numpy as np

        from repro.trace.encode import load_traceset, save_traceset
        from repro.trace.records import LOCK, UNLOCK
        from repro.trace.validate import TraceValidationError
        from repro.workloads import generate_trace

        path = tmp_path / "t.npz"
        save_traceset(generate_trace("fullconn", scale=0.02), path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        records = arrays["proc0"]
        i = int(np.argmax(records["kind"] == LOCK))
        records["kind"][i] = UNLOCK  # proc 0 releases a lock it never took
        np.savez(path, **arrays)
        with pytest.raises(
            TraceValidationError,
            match=f"record {i}: lock {records['arg'][i]} released while not held",
        ):
            load_traceset(path)
