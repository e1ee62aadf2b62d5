"""Tests for the workload-authoring framework (ProcContext, SharedLock,
the coordinated runner, and the Presto runtime model)."""

import numpy as np
import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.layout import LINE_SIZE, AddressLayout
from repro.trace.records import IBLOCK, LOCK, READ, UNLOCK, WRITE
from repro.trace.stats import compute_trace_stats
from repro.workloads.base import ProcContext, SharedLock, Workload, run_coordinated
from repro.workloads.presto import PrestoRuntime


@pytest.fixture
def ctx():
    layout = AddressLayout(2)
    b = TraceBuilder(0, program="t")
    return ProcContext(0, b, layout, np.random.default_rng(0), sites={}, cpi=3.0)


class TestProcContext:
    def test_step_emits_block_then_data(self, ctx):
        sh = ctx.layout.alloc_shared(64)
        ctx.step("site", 10, reads=[sh], writes=[(sh + 16, 4)])
        t = ctx.b.finish()
        assert [int(k) for k in t.records["kind"]] == [IBLOCK, READ, WRITE]
        assert t.records[0]["cycles"] == 30  # 10 instr x cpi 3.0
        assert t.records[2]["arg"] == 4

    def test_same_site_reuses_code_address(self, ctx):
        ctx.compute("loop", 8)
        ctx.compute("loop", 8)
        t = ctx.b.finish()
        assert t.records[0]["addr"] == t.records[1]["addr"]

    def test_different_sites_get_disjoint_code(self, ctx):
        ctx.compute("a", 50)
        ctx.compute("b", 50)
        t = ctx.b.finish()
        a, b = int(t.records[0]["addr"]), int(t.records[1]["addr"])
        assert abs(a - b) >= 50 * 4

    def test_sites_shared_across_processors(self):
        layout = AddressLayout(2)
        sites = {}
        rng = np.random.default_rng(0)
        ctxs = [
            ProcContext(p, TraceBuilder(p), layout, rng, sites)
            for p in range(2)
        ]
        ctxs[0].compute("f", 6)
        ctxs[1].compute("f", 6)
        t0, t1 = ctxs[0].b.finish(), ctxs[1].b.finish()
        assert t0.records[0]["addr"] == t1.records[0]["addr"]

    def test_lock_tracking(self, ctx):
        lk = SharedLock(ctx.layout, "l")
        ctx.lock(lk)
        assert ctx.holding == (lk,)
        ctx.unlock(lk)
        assert ctx.holding == ()

    def test_minimum_one_cycle(self, ctx):
        ctx.cpi = 0.01
        ctx.compute("tiny", 1)
        assert ctx.b.finish().records[0]["cycles"] == 1


class TestSharedLock:
    def test_ids_deterministic_per_layout(self):
        a = SharedLock(AddressLayout(2))
        b = SharedLock(AddressLayout(2))
        assert a.lock_id == b.lock_id
        assert a.addr == b.addr

    def test_sequential_locks_distinct(self):
        layout = AddressLayout(2)
        a, b = SharedLock(layout), SharedLock(layout)
        assert a.lock_id != b.lock_id
        assert b.addr - a.addr == LINE_SIZE


class TestRunCoordinated:
    def test_round_robin_interleaving(self):
        log = []

        def worker(name, n):
            for i in range(n):
                log.append((name, i))
                yield

        run_coordinated([worker("a", 3), worker("b", 2)])
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2)]

    def test_empty_worker_list(self):
        run_coordinated([])

    def test_unequal_lengths_drain(self):
        done = []

        def worker(name, n):
            for _ in range(n):
                yield
            done.append(name)

        run_coordinated([worker("short", 1), worker("long", 5)])
        assert set(done) == {"short", "long"}


class TestPrestoRuntime:
    def _ctx(self, layout, p=0):
        return ProcContext(
            p, TraceBuilder(p), layout, np.random.default_rng(0), sites={}
        )

    def test_dispatch_produces_nested_pair(self):
        layout = AddressLayout(2)
        presto = PrestoRuntime(layout)
        ctx = self._ctx(layout)
        presto.dispatch(ctx)
        stats = compute_trace_stats(ctx.b.finish())
        assert stats.lock_pairs == 2
        assert stats.nested_locks == 1  # the queue lock inside the scheduler

    def test_dispatch_lock_order(self):
        layout = AddressLayout(2)
        presto = PrestoRuntime(layout)
        ctx = self._ctx(layout)
        presto.dispatch(ctx)
        rec = ctx.b.finish().records
        sync = [(int(r["kind"]), int(r["arg"])) for r in rec if r["kind"] in (LOCK, UNLOCK)]
        sched, queue = presto.sched_lock.lock_id, presto.queue_lock.lock_id
        assert sync == [
            (LOCK, sched),
            (LOCK, queue),
            (UNLOCK, queue),
            (UNLOCK, sched),
        ]

    def test_enqueue_takes_inner_lock_alone(self):
        layout = AddressLayout(2)
        presto = PrestoRuntime(layout)
        ctx = self._ctx(layout)
        presto.enqueue(ctx)
        stats = compute_trace_stats(ctx.b.finish())
        assert stats.lock_pairs == 1
        assert stats.nested_locks == 0

    def test_spawn_allocates_shared_tcb(self):
        layout = AddressLayout(2)
        presto = PrestoRuntime(layout)
        ctx = self._ctx(layout)
        presto.spawn(ctx)
        stats = compute_trace_stats(ctx.b.finish())
        # Presto's allocator: everything lands in the shared heap
        assert stats.shared_refs == stats.data_refs

    def test_hold_time_scales_with_work_instr(self):
        layout = AddressLayout(2)
        presto = PrestoRuntime(layout)
        short, long_ = self._ctx(layout, 0), self._ctx(layout, 1)
        presto.dispatch(short, work_instr=10)
        presto.dispatch(long_, work_instr=30)
        s = compute_trace_stats(short.b.finish())
        l = compute_trace_stats(long_.b.finish())
        assert l.avg_held > 2 * s.avg_held


class TestWorkloadScaling:
    def test_scaled_floors_at_minimum(self):
        class W(Workload):
            name = "w"

            def build(self, ctxs, layout, rng):
                pass

        w = W(scale=0.0001)
        assert w.scaled(100) == 1
        assert w.scaled(100, minimum=5) == 5
        assert W(scale=2.0).scaled(100) == 200
