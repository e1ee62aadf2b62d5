"""Unit tests for bus operations and the cache--bus buffer."""

import pytest

from repro.machine.buffers import (
    READ_MISS,
    RFO,
    WRITEBACK,
    BusOp,
    CacheBusBuffer,
)


def op(kind=READ_MISS, line=1, proc=0):
    return BusOp(kind, line, proc)


class TestQueueDiscipline:
    def test_fifo_order(self):
        buf = CacheBusBuffer(0, depth=4)
        a, b = op(line=1), op(line=2)
        buf.push(a)
        buf.push(b)
        assert buf.pop() is a
        assert buf.pop() is b

    def test_push_front_bypasses(self):
        buf = CacheBusBuffer(0, depth=4)
        w = op(RFO, line=1)
        r = op(READ_MISS, line=2)
        buf.push(w)
        buf.push_front(r)
        assert buf.pop() is r
        assert buf.pop() is w

    def test_peek_does_not_remove(self):
        buf = CacheBusBuffer(0, depth=4)
        a = op()
        buf.push(a)
        assert buf.peek() is a
        assert buf.peek() is a
        assert len(buf) == 1

    def test_peek_empty(self):
        assert CacheBusBuffer(0, 4).peek() is None

    def test_has_space_respects_depth(self):
        buf = CacheBusBuffer(0, depth=2)
        buf.push(op(line=1))
        assert buf.has_space()
        buf.push(op(line=2))
        assert not buf.has_space()

    def test_max_occupancy_high_water(self):
        buf = CacheBusBuffer(0, depth=8)
        for i in range(5):
            buf.push(op(line=i))
        for _ in range(3):
            buf.pop()
        buf.push(op(line=9))
        assert buf.max_occupancy == 5


class TestCancellation:
    def test_cancelled_entries_skipped_by_peek(self):
        buf = CacheBusBuffer(0, depth=4)
        a, b = op(WRITEBACK, line=1), op(READ_MISS, line=2)
        buf.push(a)
        buf.push(b)
        buf.cancel(a)
        assert buf.peek() is b
        assert len(buf) == 1

    def test_find_matches_kind_and_line(self):
        buf = CacheBusBuffer(0, depth=4)
        wb = op(WRITEBACK, line=7)
        buf.push(op(READ_MISS, line=7))
        buf.push(wb)
        assert buf.find(WRITEBACK, 7) is wb
        assert buf.find(WRITEBACK, 8) is None

    def test_find_ignores_cancelled(self):
        buf = CacheBusBuffer(0, depth=4)
        wb = op(WRITEBACK, line=7)
        buf.push(wb)
        buf.cancel(wb)
        assert buf.find(WRITEBACK, 7) is None


class TestSpaceWaiters:
    def test_waiter_notified_when_space_frees(self):
        buf = CacheBusBuffer(0, depth=1)
        buf.push(op(line=1))
        calls = []
        buf.wait_for_space(lambda t: calls.append(t))
        buf.notify_space(5)  # still full? no: notify checks has_space
        assert calls == []  # buffer still full
        buf.pop()
        buf.notify_space(9)
        assert calls == [9]

    def test_multiple_waiters_all_notified(self):
        buf = CacheBusBuffer(0, depth=2)
        buf.push(op(line=1))
        buf.push(op(line=2))
        calls = []
        buf.wait_for_space(lambda t: calls.append("a"))
        buf.wait_for_space(lambda t: calls.append("b"))
        buf.pop()
        buf.notify_space(1)
        assert calls == ["a", "b"]

    def test_notify_without_waiters_is_noop(self):
        CacheBusBuffer(0, 4).notify_space(3)


class TestBusOp:
    def test_repr_mentions_kind(self):
        assert "READ_MISS" in repr(op())

    def test_defaults(self):
        o = op()
        assert o.supplier is None
        assert not o.cancelled
        assert not o.converted
