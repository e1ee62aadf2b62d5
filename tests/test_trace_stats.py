"""Unit tests for the ideal trace statistics (Tables 1/2 groundwork)."""

import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.layout import AddressLayout
from repro.trace.stats import compute_trace_stats
from repro.trace.validate import critical_sections


@pytest.fixture
def layout():
    return AddressLayout(2)


def build(fn):
    b = TraceBuilder(0)
    fn(b)
    return b.finish()


class TestReferenceCounts:
    def test_work_cycles_sum_blocks(self, layout):
        code = layout.alloc_code(256)

        def fn(b):
            b.block(5, 12, code)
            b.block(3, 8, code)

        s = compute_trace_stats(build(fn))
        assert s.work_cycles == 20
        assert s.all_refs == 8  # ifetches only
        assert s.data_refs == 0

    def test_data_and_shared_split(self, layout):
        code = layout.alloc_code(64)
        sh = layout.alloc_shared(64)
        pr = layout.alloc_private(0, 64)

        def fn(b):
            b.block(2, 4, code)
            b.read(sh)
            b.read(pr)
            b.write(sh, reps=3)

        s = compute_trace_stats(build(fn))
        assert s.all_refs == 2 + 1 + 1 + 3
        assert s.data_refs == 5
        assert s.shared_refs == 4  # 1 shared read + 3 shared writes

    def test_lock_word_refs_count_as_shared(self, layout):
        la = layout.alloc_lock()

        def fn(b):
            b.read(la)

        s = compute_trace_stats(build(fn))
        assert s.shared_refs == 1

    def test_reps_count_every_elementary_ref(self, layout):
        sh = layout.alloc_shared(256)

        def fn(b):
            b.read(sh, reps=17)

        s = compute_trace_stats(build(fn))
        assert s.data_refs == 17


class TestLockHolds:
    def test_simple_hold_duration(self, layout):
        code = layout.alloc_code(64)
        la = layout.alloc_lock()

        def fn(b):
            b.lock(1, la)
            b.block(4, 100, code)
            b.unlock(1, la)

        cs = critical_sections(build(fn))
        assert len(cs) == 1
        assert (cs[0]["acquire"], cs[0]["release"]) == (0, 2)
        assert cs[0]["end"] - cs[0]["start"] == 100
        assert cs[0]["depth"] == 0

    def test_nested_flag(self, layout):
        code = layout.alloc_code(64)
        l1, l2 = layout.alloc_lock(), layout.alloc_lock()

        def fn(b):
            b.lock(1, l1)
            b.block(2, 10, code)
            b.lock(2, l2)
            b.block(2, 10, code)
            b.unlock(2, l2)
            b.unlock(1, l1)

        cs = critical_sections(build(fn))
        assert dict(zip(cs["lock"].tolist(), cs["depth"].tolist())) == {1: 0, 2: 1}

    def test_stats_counts_pairs_and_nesting(self, layout):
        code = layout.alloc_code(64)
        l1, l2 = layout.alloc_lock(), layout.alloc_lock()

        def fn(b):
            for _ in range(3):
                b.lock(1, l1)
                b.lock(2, l2)
                b.block(2, 10, code)
                b.unlock(2, l2)
                b.unlock(1, l1)

        s = compute_trace_stats(build(fn))
        assert s.lock_pairs == 6
        assert s.nested_locks == 3

    def test_total_held_merges_overlapping_intervals(self, layout):
        """Nested holds must not double-count: Table 2's "Total Held"
        is the union of held intervals."""
        code = layout.alloc_code(64)
        l1, l2 = layout.alloc_lock(), layout.alloc_lock()

        def fn(b):
            b.lock(1, l1)
            b.block(2, 50, code)
            b.lock(2, l2)  # inner hold entirely within outer
            b.block(2, 30, code)
            b.unlock(2, l2)
            b.block(2, 20, code)
            b.unlock(1, l1)
            b.block(2, 100, code)  # unlocked tail

        s = compute_trace_stats(build(fn))
        assert s.total_held == 100  # 50+30+20, inner not double-counted
        assert s.work_cycles == 200
        assert s.pct_time_held == pytest.approx(50.0)

    def test_avg_held_is_per_pair(self, layout):
        code = layout.alloc_code(64)
        la = layout.alloc_lock()

        def fn(b):
            b.lock(1, la)
            b.block(2, 10, code)
            b.unlock(1, la)
            b.lock(1, la)
            b.block(2, 30, code)
            b.unlock(1, la)

        s = compute_trace_stats(build(fn))
        assert s.avg_held == pytest.approx(20.0)

    def test_no_locks(self, layout):
        code = layout.alloc_code(64)

        def fn(b):
            b.block(2, 10, code)

        s = compute_trace_stats(build(fn))
        assert s.lock_pairs == 0
        assert s.avg_held == 0.0
        assert s.pct_time_held == 0.0

    def test_empty_trace(self, layout):
        s = compute_trace_stats(build(lambda b: None))
        assert s.work_cycles == 0
        assert s.all_refs == 0
        assert s.pct_time_held == 0.0
