"""Timing tests: hand-built traces through the full System, checking the
paper's §2.2 cycle accounting (6-cycle uncontended miss, etc.)."""

import pytest

from repro.consistency import SEQUENTIAL, WEAK
from repro.machine.system import System
from repro.sync import QueuingLockManager
from tests.conftest import make_traceset, tiny_machine


def run(ts, model=SEQUENTIAL, config=None, **kw):
    config = config or tiny_machine(n_procs=ts.n_procs)
    system = System(ts, config, QueuingLockManager(), model, **kw)
    return system.run(), system


class TestIdealExecution:
    def test_pure_compute_takes_work_cycles_plus_cold_ifetch(self):
        def fn(b, layout):
            code = layout.alloc_code(64)
            b.block(4, 50, code)  # one code line: one cold ifetch miss
            b.block(4, 50, code)

        result, _ = run(make_traceset([fn]))
        m = result.proc_metrics[0]
        assert m.work_cycles == 100
        # one cold ifetch miss at 6 cycles
        assert m.stall_miss == 6
        assert result.run_time == 106
        assert m.utilization == pytest.approx(100 / 106)

    def test_completion_equals_work_plus_stalls(self):
        def fn(b, layout):
            code = layout.alloc_code(256)
            sh = layout.alloc_shared(256)
            b.block(8, 20, code)
            b.read(sh, reps=8)
            b.write(sh + 64, reps=4)
            b.block(8, 20, code + 128)

        result, _ = run(make_traceset([fn, fn]))
        for m in result.proc_metrics:
            assert m.completion_time == m.work_cycles + m.total_stall


class TestMissTiming:
    def test_isolated_read_miss_costs_six_cycles(self):
        def fn(b, layout):
            code = layout.alloc_code(16)
            sh = layout.alloc_shared(16)
            b.block(1, 2, code)
            b.read(sh)

        result, _ = run(make_traceset([fn]))
        m = result.proc_metrics[0]
        # two cold misses (ifetch + data), 6 cycles each
        assert m.stall_miss == 12
        assert result.read_misses == 1
        assert result.ifetch_misses == 1

    def test_second_read_to_same_line_hits(self):
        def fn(b, layout):
            sh = layout.alloc_shared(16)
            b.read(sh)
            b.read(sh + 4)

        result, _ = run(make_traceset([fn]))
        assert result.read_misses == 1
        assert result.read_hits == 1

    def test_write_miss_costs_six_cycles_under_sc(self):
        def fn(b, layout):
            sh = layout.alloc_shared(16)
            b.write(sh)

        result, _ = run(make_traceset([fn]))
        m = result.proc_metrics[0]
        assert m.stall_miss == 6
        assert result.write_misses == 1

    def test_write_after_write_allocate_hits(self):
        def fn(b, layout):
            sh = layout.alloc_shared(16)
            b.write(sh)
            b.write(sh + 8)

        result, _ = run(make_traceset([fn]))
        assert result.write_misses == 1
        assert result.write_hits == 1

    def test_rep_record_counts_all_refs_one_miss_per_line(self):
        def fn(b, layout):
            sh = layout.alloc_shared(64)
            b.read(sh, reps=16)  # 4 lines

        result, _ = run(make_traceset([fn]))
        assert result.read_misses == 4
        assert result.read_hits == 12
        assert result.proc_metrics[0].stall_miss == 4 * 6

    def test_ifetch_block_spanning_lines(self):
        def fn(b, layout):
            code = layout.alloc_code(256)
            b.block(12, 30, code)  # 12 x 4B = 48B = 3 lines

        result, _ = run(make_traceset([fn]))
        assert result.ifetch_misses == 3
        assert result.ifetch_hits == 9


class TestWeakOrderingSemantics:
    def test_write_miss_does_not_stall_under_wo(self):
        def fn(b, layout):
            code = layout.alloc_code(16)
            sh = layout.alloc_shared(16)
            b.block(1, 10, code)
            b.write(sh)
            b.block(1, 10, code)  # hits: already fetched

        sc, _ = run(make_traceset([fn]))
        wo, _ = run(make_traceset([fn]), model=WEAK)
        sc_m, wo_m = sc.proc_metrics[0], wo.proc_metrics[0]
        assert sc_m.stall_miss > wo_m.stall_miss
        assert wo.write_misses == 1  # the miss still happened, unstalled

    def test_read_of_pending_write_line_waits_for_data(self):
        def fn(b, layout):
            sh = layout.alloc_shared(16)
            b.write(sh)
            b.read(sh + 4)  # same line: own store's data dependency

        result, _ = run(make_traceset([fn]), model=WEAK)
        m = result.proc_metrics[0]
        assert m.stall_miss > 0  # waited for the RFO
        assert result.read_hits == 1  # once filled, the read hits

    def test_wo_drains_before_sync(self):
        def fn(b, layout):
            sh = layout.alloc_shared(16)
            la = layout.alloc_lock()
            b.write(sh)  # buffered
            b.lock(0, la)  # must drain first
            b.unlock(0, la)

        result, _ = run(make_traceset([fn]), model=WEAK)
        m = result.proc_metrics[0]
        assert m.drains == 2
        assert m.drains_nonempty >= 1
        assert m.stall_drain > 0

    def test_sc_never_drains(self):
        def fn(b, layout):
            sh = layout.alloc_shared(16)
            la = layout.alloc_lock()
            b.write(sh)
            b.lock(0, la)
            b.unlock(0, la)

        result, _ = run(make_traceset([fn]))
        assert result.proc_metrics[0].drains == 0


class TestWriteback:
    def test_dirty_eviction_generates_writeback(self):
        def fn(b, layout):
            # 3 lines in the same set of a tiny cache: evict dirty
            base = layout.alloc_shared(4096)
            b.write(base)
            b.write(base + 128)
            b.write(base + 256)

        cfg = tiny_machine(n_procs=1)
        from dataclasses import replace
        from repro.machine.config import CacheConfig

        cfg = replace(cfg, cache=CacheConfig(size_bytes=128, line_bytes=16, assoc=2))
        result, system = run(make_traceset([fn]), config=cfg)
        assert result.writebacks == 1
        assert system.memory.writes_serviced == 1

    def test_reclaim_from_writeback_buffer(self):
        """A reference that hits its own still-buffered write-back pulls
        the line back in one cycle with no bus traffic."""
        from repro.machine.buffers import WRITEBACK, BusOp
        from repro.machine.cache import MODIFIED

        def fn(b, layout):
            b.read(layout.alloc_shared(16))

        ts = make_traceset([fn])
        cfg = tiny_machine(n_procs=1)
        system = System(ts, cfg, QueuingLockManager(), SEQUENTIAL)
        proc = system.procs[0]
        line = 123
        wb = BusOp(WRITEBACK, line, 0)
        system.buffers[0].push(wb)
        proc.outstanding_wb += 1
        t0 = proc.time
        assert proc._reclaim_from_buffer(line) is True
        assert proc.cache.probe(line) == MODIFIED
        assert proc.time == t0 + 1
        assert wb.cancelled
        assert proc.outstanding_wb == 0
        # a line not in the buffer is not reclaimable
        assert proc._reclaim_from_buffer(999) is False


class TestCompletionInvariants:
    def test_all_procs_finish(self):
        def fn(b, layout):
            sh = layout.alloc_shared(1024)
            for i in range(20):
                b.read(sh + (i * 16) % 1024)

        result, _ = run(make_traceset([fn, fn, fn]))
        assert all(m.completion_time > 0 for m in result.proc_metrics)

    def test_refs_processed_matches_trace(self):
        def fn(b, layout):
            code = layout.alloc_code(64)
            sh = layout.alloc_shared(64)
            b.block(6, 12, code)
            b.read(sh, reps=5)
            b.write(sh, reps=2)

        result, _ = run(make_traceset([fn]))
        assert result.proc_metrics[0].refs_processed == 13

    def test_deadlock_detection_reports_stuck_procs(self):
        """A trace whose lock is never released by anyone else cannot
        hang silently."""
        import numpy as np

        from repro.trace.layout import AddressLayout
        from repro.trace.records import LOCK, RECORD_DTYPE, Trace, TraceSet

        layout = AddressLayout(2)
        la = layout.alloc_lock()
        # both procs take lock 0 and never release it: the builder
        # refuses such a trace, so build the records directly
        never_released = np.array([(LOCK, la, 0, 0)], dtype=RECORD_DTYPE)
        ts = TraceSet(
            [Trace(never_released, proc=p) for p in range(2)], layout, program="dead"
        )
        with pytest.raises(RuntimeError, match="deadlock"):
            run(ts)
