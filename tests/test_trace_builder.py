"""Unit tests for the trace builder."""

import pytest

from repro.trace.builder import TraceBuildError, TraceBuilder
from repro.trace.layout import AddressLayout
from repro.trace.records import BARRIER, IBLOCK, LOCK, READ, UNLOCK, WRITE


@pytest.fixture
def layout():
    return AddressLayout(2)


@pytest.fixture
def b():
    return TraceBuilder(0, program="t")


class TestEmission:
    def test_block_record(self, b, layout):
        code = layout.alloc_code(64)
        b.block(10, 25, code)
        t = b.finish()
        assert len(t) == 1
        rec = t.records[0]
        assert rec["kind"] == IBLOCK
        assert rec["addr"] == code
        assert rec["arg"] == 10
        assert rec["cycles"] == 25

    def test_read_write_records(self, b, layout):
        a = layout.alloc_shared(64)
        b.read(a)
        b.write(a + 4, reps=4)
        t = b.finish()
        assert t.records[0]["kind"] == READ
        assert t.records[0]["arg"] == 1
        assert t.records[1]["kind"] == WRITE
        assert t.records[1]["arg"] == 4

    def test_lock_unlock_records(self, b, layout):
        la = layout.alloc_lock()
        b.lock(7, la)
        b.unlock(7, la)
        t = b.finish()
        assert t.records[0]["kind"] == LOCK
        assert t.records[0]["arg"] == 7
        assert t.records[1]["kind"] == UNLOCK

    def test_barrier_record(self, b):
        b.barrier(3)
        t = b.finish()
        assert t.records[0]["kind"] == BARRIER
        assert t.records[0]["arg"] == 3

    def test_len_tracks_records(self, b, layout):
        a = layout.alloc_shared(64)
        assert len(b) == 0
        b.read(a)
        b.read(a)
        assert len(b) == 2


class TestValidationAtBuild:
    """Emission never checks; finish() validates the whole trace and
    names the broken invariant."""

    def test_zero_instruction_block_rejected(self, b, layout):
        b.block(0, 5, layout.alloc_code(16))
        with pytest.raises(TraceBuildError, match="zero instructions"):
            b.finish()

    def test_zero_cycle_block_rejected(self, b, layout):
        b.block(4, 0, layout.alloc_code(16))
        with pytest.raises(TraceBuildError, match="zero cycles"):
            b.finish()

    def test_block_outside_code_region_rejected(self, b, layout):
        b.block(4, 8, layout.alloc_shared(16))
        with pytest.raises(TraceBuildError, match="outside code region"):
            b.finish()

    def test_zero_reps_rejected(self, b, layout):
        b.read(layout.alloc_shared(16), reps=0)
        with pytest.raises(TraceBuildError, match="zero repetitions"):
            b.finish()

    def test_reacquire_held_lock_rejected(self, b, layout):
        la = layout.alloc_lock()
        b.lock(1, la)
        b.lock(1, la)
        with pytest.raises(TraceBuildError, match="record 1: lock 1 re-acquired"):
            b.finish()

    def test_release_unheld_lock_rejected(self, b, layout):
        b.unlock(1, layout.alloc_lock())
        with pytest.raises(TraceBuildError, match="record 0: lock 1 released while not held"):
            b.finish()

    def test_lock_with_two_addresses_rejected(self, b, layout):
        a1, a2 = layout.alloc_lock(), layout.alloc_lock()
        b.lock(1, a1)
        b.unlock(1, a1)
        b.lock(1, a2)
        b.unlock(1, a2)
        with pytest.raises(TraceBuildError, match="lock 1 has two addresses"):
            b.finish()

    def test_lock_at_data_address_rejected(self, b, layout):
        la = layout.alloc_shared(16)
        b.lock(1, la)
        b.unlock(1, la)
        with pytest.raises(TraceBuildError, match="non-lock address"):
            b.finish()

    def test_finish_with_held_lock_rejected(self, b, layout):
        b.lock(1, layout.alloc_lock())
        with pytest.raises(TraceBuildError, match="ends holding locks"):
            b.finish()

    def test_barrier_while_holding_lock_rejected(self, b, layout):
        la = layout.alloc_lock()
        b.lock(1, la)
        b.barrier(0)
        b.unlock(1, la)
        with pytest.raises(TraceBuildError, match="record 1: barrier 0 reached while holding"):
            b.finish()

    def test_emit_after_finish_rejected(self, b, layout):
        a = layout.alloc_shared(16)
        b.read(a)
        b.finish()
        with pytest.raises(TraceBuildError):
            b.read(a)


class TestNesting:
    def test_nested_locks_allowed(self, b, layout):
        outer, inner = layout.alloc_lock(), layout.alloc_lock()
        b.lock(1, outer)
        b.lock(2, inner)
        b.unlock(2, inner)
        b.unlock(1, outer)
        b.finish()

    def test_hand_over_hand_release_order(self, b, layout):
        """Releases need not be LIFO."""
        l1, l2 = layout.alloc_lock(), layout.alloc_lock()
        b.lock(1, l1)
        b.lock(2, l2)
        b.unlock(1, l1)  # outer released first
        b.unlock(2, l2)
        b.finish()
