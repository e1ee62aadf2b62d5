"""The simulated machine: processors, caches, buffers, bus, memory,
lock manager and consistency model wired together.

This module is the bus *service*: it decides, at arbitration and grant
time, what each bus operation does -- who snoops, who supplies a line
cache-to-cache, when memory is involved -- and it routes completions back
to the processors and lock managers.  Timing follows §2.2:

* address/request phase: 1 bus cycle;
* memory access: 3 cycles, overlapped with bus activity (split
  transaction), behind 2-entry input/output buffers;
* data phase: 2 bus cycles for a 16-byte line on the 8-byte bus;
* cache-to-cache transfer: address + data back-to-back (3 cycles), with
  memory updated during the transfer when the source line was dirty
  (Illinois protocol);
* invalidation signal: 1 address-only cycle.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Callable

from ..consistency.base import ConsistencyModel
from ..sync.base import LockManager
from ..trace.records import TraceSet
from .buffers import (
    DATA_RETURN,
    LOCK_INVAL,
    LOCK_MEM,
    LOCK_READ,
    LOCK_RFO,
    LOCK_XFER,
    READ_MISS,
    RFO,
    UPDATE,
    UPGRADE,
    WRITEBACK,
    WRITETHROUGH,
    BusOp,
    CacheBusBuffer,
)
from .bus import Bus
from .cache import EXCLUSIVE, MODIFIED, SHARED, Cache
from .config import MachineConfig
from .engine import Engine
from .memory import Memory
from .metrics import RunResult
from .processor import _WAIT_MISS, Processor

__all__ = ["System", "simulate"]


class System:
    """One complete simulation instance, used once: build, run, read,
    close.  :meth:`run` leaves the machine readable for inspection, and
    :meth:`close` then frees it by reference counting.  Whoever builds a
    System and hands out only its result closes it: :func:`simulate`
    (so ``JobSpec.run`` and ``Experiment.run``) and
    ``repro.testing.differential.run_cell``."""

    # Slots for the hot attributes (see Processor.__slots__).  The
    # instance dict stays for the methods shadowed per instance: the fast
    # bundle's ``execute`` and ``issue_from_proc``, and whatever tests and
    # the fault registry wrap (``execute``, ``on_proc_done``).
    __slots__ = (
        "_addr_cycles",
        "audit",
        "barriers",
        "buffers",
        "bus",
        "_cache_supplier",
        "caches",
        "_cb_fill",
        "config",
        "directory",
        "_done_count",
        "_done_op",
        "engine",
        "_exec_fast",
        "_exec_table",
        "_fills_in_flight",
        "_hold_word",
        "_hold_xfer",
        "_issue_cbs",
        "_issue_q",
        "_line_data_cycles",
        "locks",
        "max_events",
        "memory",
        "model",
        "procs",
        "protocol",
        "_ran",
        "_ret_arrive",
        "_ret_fill",
        "_ret_op",
        "_ret_write_line",
        "_ret_write_word",
        "_reuse_ops",
        "_sched_inline",
        "traceset",
        "upgrade_conversions",
        "_wb_total",
        "__dict__",
    )

    def __init__(
        self,
        traceset: TraceSet,
        config: MachineConfig,
        lock_manager: LockManager,
        model: ConsistencyModel,
        barrier_manager=None,
        max_events: int | None = None,
        engine_factory: Callable[[], Engine] | None = None,
    ) -> None:
        if traceset.n_procs != config.n_procs:
            config = config.with_procs(traceset.n_procs)
        self.traceset = traceset
        self.config = config
        self.model = model
        self.engine = (engine_factory or Engine)()
        # the engine's bucket-iteration shortcut rides the same escape
        # hatch as the rest of the contended-path bundle (HeapEngine has
        # no such knob: it dispatches one event per heap entry either way)
        if hasattr(self.engine, "fast_dispatch"):
            self.engine.fast_dispatch = config.bus_fast_path
        #: optional runtime invariant auditor (see repro.audit)
        self.audit = None
        self.locks = lock_manager
        self.locks.attach(self)
        self.barriers = barrier_manager
        if self.barriers is not None:
            self.barriers.attach(self)
        self.max_events = max_events

        from .coherence import get_protocol

        self.protocol = get_protocol(config.coherence)
        self.memory = Memory(
            self.engine, config.memory, fast_path=config.bus_fast_path
        )
        self.bus = Bus(self.engine, self, fast_path=config.bus_fast_path)
        self.memory._bus_kick = self.bus.kick

        n = config.n_procs
        self.caches = [
            Cache(config.cache, fast_path=config.bus_fast_path) for _ in range(n)
        ]
        #: machine-wide residency directory: line -> [procs caching it].
        #: Maintained exactly by the caches; lets the bus service snoop
        #: only actual holders and find c2c suppliers without scanning
        #: every cache (see docs/performance.md).
        self.directory: dict[int, list[int]] = {}
        for p, cache in enumerate(self.caches):
            cache.attach_directory(self.directory, p)
        # contended-path fast path: machine-wide count of live buffered
        # write-backs (shared int cell maintained by the buffers).  When
        # zero -- the overwhelmingly common case -- the supplier search
        # and the RFO write-back sweep skip the all-buffers scan.
        self._wb_total = [0] if config.bus_fast_path else None
        self.buffers = [
            CacheBusBuffer(
                p, config.cachebus_buffer_depth, wb_shared=self._wb_total
            )
            for p in range(n)
        ]
        for buf in self.buffers:
            self.bus.add_port(buf)
        self.bus.add_port(self.memory.port)

        self.procs = [
            Processor(
                p,
                traceset[p],
                self.caches[p],
                self,
                model,
                config.batch_records,
                bus_fast_path=config.bus_fast_path,
            )
            for p in range(n)
        ]
        self._done_count = 0
        #: one immutable ("cache", p, None) supplier record per processor,
        #: handed out by the supplier search instead of a fresh tuple
        self._cache_supplier = [("cache", p, None) for p in range(n)]
        self._line_data_cycles = config.line_data_cycles
        self._addr_cycles = config.bus.addr_cycles
        self.upgrade_conversions = 0
        self._ran = False
        # MSHR-style in-flight fill tracking: line -> fetching processor.
        # A second miss on a line whose fill is still in flight waits in
        # its buffer until the fill lands (the arbiter skips it), then is
        # serviced cache-to-cache -- without this, two simultaneous
        # misses could both install EXCLUSIVE.
        self._fills_in_flight: dict[int, int] = {}
        # grant-time dispatch: op kind -> executor (replaces an if-chain
        # walked once per bus grant)
        self._exec_table = {
            READ_MISS: self._exec_read_miss,
            RFO: self._exec_rfo,
            UPGRADE: self._exec_upgrade,
            WRITEBACK: self._exec_writeback,
            WRITETHROUGH: self._exec_writethrough,
            UPDATE: self._exec_update,
            LOCK_MEM: self._exec_lock_mem,
            LOCK_READ: self._exec_lock_read,
            LOCK_RFO: self._exec_lock_rfo,
            LOCK_INVAL: self._exec_lock_inval,
            LOCK_XFER: self._exec_lock_xfer,
            DATA_RETURN: self._exec_data_return,
        }

        # Contended-path fast path (MachineConfig.bus_fast_path): fused
        # uncontended timelines.  Holds are precomputed once; executors
        # carry the granted op in a single slot (_done_op) and return one
        # of four preallocated completion trampolines instead of a fresh
        # closure per grant -- legal because the bus holds at most one
        # transaction, so between execute() and its fire no other
        # execute() can overwrite the slot.  The dispatch table is a flat
        # list indexed by the (small-int) op kind.
        self._hold_xfer = self._addr_cycles + self._line_data_cycles
        self._hold_word = self._addr_cycles + 1
        self._done_op: BusOp | None = None
        self._cb_fill = self._complete_fill
        # the fused executors' (hold, done) answers, built once: a
        # memory-bound address phase (the request rides the memory's
        # arriving slot), a cache-to-cache fill, an in-place upgrade, and
        # a line or word write into memory
        self._ret_arrive = (self._addr_cycles, self.memory._arrive_cb)
        self._ret_fill = (self._hold_xfer, self._cb_fill)
        self._ret_op = (self._addr_cycles, self._complete_op)
        self._ret_write_line = (self._hold_xfer, self._complete_write)
        self._ret_write_word = (self._hold_word, self._complete_write)
        if config.bus_fast_path:
            self._exec_fast = {
                READ_MISS: self._fexec_read_miss,
                RFO: self._fexec_rfo,
                UPGRADE: self._fexec_upgrade,
                WRITEBACK: self._fexec_writeback,
                WRITETHROUGH: self._fexec_writethrough,
                UPDATE: self._fexec_update,
                LOCK_MEM: self._fexec_lock_mem,
                LOCK_READ: self._fexec_lock_read,
                LOCK_RFO: self._fexec_lock_rfo,
                LOCK_INVAL: self._exec_lock_inval,
                LOCK_XFER: self._exec_lock_xfer,
                DATA_RETURN: self._fexec_data_return,
            }
            # shadow the protocol method with the fast dispatcher
            self.execute = self._execute_fast
            # Per-processor issue queues + preallocated push trampolines
            # replace the per-issue closure of the reference
            # issue_from_proc.  Legal because one processor's scheduled
            # issue times are non-decreasing (its local clock and the
            # global clock both only advance, so max(local, now) is
            # monotone): the trampoline events for a processor fire in
            # exactly the order its entries were queued, so each pop
            # yields the op the dropped closure would have captured.
            self._issue_q = [deque() for _ in range(n)]
            self._issue_cbs = [self._make_issue_cb(p) for p in range(n)]
            self.issue_from_proc = self._issue_from_proc_fast
            for p, proc in enumerate(self.procs):
                proc._issue_append = self._issue_q[p].append
                proc._issue_cb = self._issue_cbs[p]
        # inline engine scheduling (bucket append without the ``at`` call)
        # is only exact against the production Engine's internals
        self._sched_inline = config.bus_fast_path and type(self.engine) is Engine
        # fast path: reuse finished read-miss, upgrade and data-return ops
        # (decided when the run starts, see run())
        self._reuse_ops = False

        from ..audit import maybe_attach

        maybe_attach(self, force=config.audit)

    # ------------------------------------------------------------------
    # Processor-facing services
    # ------------------------------------------------------------------
    def issue_from_proc(self, op: BusOp, at_time: int, front: bool) -> None:
        """Queue ``op`` in its processor's cache--bus buffer at the
        processor's local time (clamped to the global clock)."""
        t = max(at_time, self.engine.now)

        def push(now: int) -> None:
            buf = self.buffers[op.proc]
            if front:
                buf.push_front(op)
            else:
                buf.push(op)
            self.bus.kick(now)

        self.engine.at(t, push)

    def _make_issue_cb(self, p: int):
        """Preallocated push trampoline for processor ``p`` (fast path)."""
        q = self._issue_q[p]
        buf = self.buffers[p]

        def push(now: int, _pop=q.popleft, _buf=buf) -> None:
            op, front = _pop()
            if front:
                _buf.push_front(op)
            else:
                _buf.push(op)
            self.bus.kick(now)

        return push

    def _issue_from_proc_fast(self, op: BusOp, at_time: int, front: bool) -> None:
        """issue_from_proc without the per-issue closure: queue the entry
        and schedule the processor's trampoline (see __init__)."""
        eng = self.engine
        now = eng.now
        t = at_time if at_time > now else now
        self._issue_q[op.proc].append((op, front))
        cb = self._issue_cbs[op.proc]
        if self._sched_inline and type(t) is int:
            # inlined Engine.at: t >= now by construction
            buckets = eng._buckets
            b = buckets.get(t)
            if b is None:
                buckets[t] = [cb]
                _heappush(eng._times, t)
            else:
                b.append(cb)
            eng._pending += 1
        else:
            eng.at(t, cb)

    def on_proc_done(self, proc: int, t: int) -> None:
        self._done_count += 1

    # ------------------------------------------------------------------
    # Lock/barrier-facing services (LockPortAPI)
    # ------------------------------------------------------------------
    def issue_lock_op(
        self,
        proc: int,
        kind: int,
        line: int,
        on_done: Callable[[int], None],
        front: bool = False,
    ) -> None:
        op = BusOp(kind, line, proc)
        op.on_done = on_done
        # Lock-line operations are always accepted: the issuing processor
        # is stalled at a synchronization point, so its buffer is at its
        # shallowest, and lock words never generate write-backs.
        buf = self.buffers[proc]
        if front:
            buf.push_front(op)
        else:
            buf.push(op)
        self.bus.kick(self.engine.now)

    def call_at(self, time: int, fn: Callable[[int], None]) -> None:
        self.engine.at(max(time, self.engine.now), fn)

    def lock_acquire(self, proc, lock_id, line, time, resume_cb) -> None:
        if self.audit is not None:
            resume_cb = self.audit.wrap_acquire(proc, lock_id, line, time, resume_cb)
        self.locks.acquire(proc, lock_id, line, time, resume_cb)

    def lock_release(self, proc, lock_id, line, time, resume_cb) -> None:
        if self.audit is not None:
            self.audit.on_lock_release(proc, lock_id, line, time)
        self.locks.release(proc, lock_id, line, time, resume_cb)

    def barrier_arrive(self, proc, barrier_id, time, resume_cb) -> None:
        if self.barriers is None:
            raise RuntimeError("trace contains barriers but no barrier manager")
        self.barriers.arrive(proc, barrier_id, time, resume_cb)

    # ------------------------------------------------------------------
    # Bus service: arbitration-time checks
    # ------------------------------------------------------------------
    def _find_supplier(self, line: int, requester: int):
        """Who can source ``line`` cache-to-cache: another cache, or a
        dirty copy waiting in another processor's write-back buffer.

        Cache holders come from the residency directory (lowest processor
        index first, matching the original full scan).
        """
        holders = self.directory.get(line)
        if holders:
            best = -1
            for p in holders:
                if p != requester and (best < 0 or p < best):
                    best = p
            if best >= 0:
                return self._cache_supplier[best]
        ws = self._wb_total
        if ws is None or ws[0]:
            # only scan the write-back buffers while any write-back is
            # actually buffered machine-wide (fast path keeps the count)
            for p, buf in enumerate(self.buffers):
                if p == requester or not buf.wb_count:
                    continue
                wb = buf.find(WRITEBACK, line)
                if wb is not None:
                    return ("buffer", p, wb)
        return None

    def can_issue(self, op: BusOp, time: int) -> bool:
        k = op.kind
        if k == READ_MISS or k == RFO:
            line = op.line
            p = op.proc
            holder = self._fills_in_flight.get(line)
            if holder is not None and holder != p:
                return False  # wait for the in-flight fill of this line
            ws = self._wb_total
            if ws is None or ws[0]:
                supplier = self._find_supplier(line, p)
            else:
                # no write-back buffered anywhere: _find_supplier's
                # directory search is the whole answer
                supplier = None
                holders = self.directory.get(line)
                if holders:
                    best = -1
                    for q in holders:
                        if q != p and (best < 0 or q < best):
                            best = q
                    if best >= 0:
                        supplier = self._cache_supplier[best]
            op.supplier = supplier
            if supplier is not None:
                return True
            mem = self.memory  # inlined Memory.can_accept
            return len(mem._in) + mem._reserved < mem._in_cap
        if k == UPGRADE:
            if op.line in self.caches[op.proc].state:
                return True
            # lost the line before the invalidation was granted: becomes
            # a full write miss (§4.1)
            holder = self._fills_in_flight.get(op.line)
            if holder is not None and holder != op.proc:
                return False
            op.supplier = self._find_supplier(op.line, op.proc)
            return op.supplier is not None or self.memory.can_accept()
        if k == WRITEBACK or k == WRITETHROUGH or k == UPDATE or k == LOCK_MEM:
            return self.memory.can_accept()
        if k == LOCK_READ or k == LOCK_RFO:
            s = self.locks.supplier_for_line(op.line)
            if s is not None and s != op.proc:
                op.supplier = ("lock", s, None)
                return True
            op.supplier = None
            # an RFO on a line only we cache is an address-only upgrade
            if k == LOCK_RFO and self._lock_line_cached_by(op.line, op.proc):
                op.supplier = ("self", op.proc, None)
                return True
            return self.memory.can_accept()
        # LOCK_INVAL, LOCK_XFER, DATA_RETURN need nothing but the bus
        return True

    def _lock_line_cached_by(self, line: int, proc: int) -> bool:
        for st in self.locks.locks.values():
            if st.line == line:
                return proc in st.cached_by
        return False

    # ------------------------------------------------------------------
    # Bus service: grant-time execution
    # ------------------------------------------------------------------
    def execute(self, op: BusOp, time: int):
        """Perform a granted operation's snoop/state effects.

        Returns ``(hold, done)`` per the :class:`~repro.machine.bus.
        BusService` protocol: the bus fires ``done`` (if any) at
        ``time + hold`` in the same engine event as its release.
        """
        k = op.kind
        if k != DATA_RETURN:
            # The granted op just left its processor's buffer: a slot freed.
            self.buffers[op.proc].notify_space(time)
        handler = self._exec_table.get(k)
        if handler is None:
            raise ValueError(f"unexpected bus op kind {k}")
        return handler(op, time)

    # -- lock-scheme and split-transaction operations --------------------------
    def _exec_lock_mem(self, op: BusOp, time: int):
        self.memory.reserve()
        op.return_cycles = self._line_data_cycles
        return (self._addr_cycles, lambda t: self.memory.arrive(op, t))

    def _exec_lock_read(self, op: BusOp, time: int):
        if op.supplier is not None:
            return (self._addr_cycles + self._line_data_cycles, op.on_done)
        self.memory.reserve()
        op.return_cycles = self._line_data_cycles
        return (self._addr_cycles, lambda t: self.memory.arrive(op, t))

    def _exec_lock_rfo(self, op: BusOp, time: int):
        # address phase invalidates every other cached copy
        hook = getattr(self.locks, "on_lock_rfo", None)
        if hook is not None:
            hook(op.line, op.proc, time)
        if op.supplier is not None and op.supplier[0] == "self":
            return (self._addr_cycles, op.on_done)
        if op.supplier is not None:
            return (self._addr_cycles + self._line_data_cycles, op.on_done)
        self.memory.reserve()
        op.return_cycles = self._line_data_cycles
        return (self._addr_cycles, lambda t: self.memory.arrive(op, t))

    def _exec_lock_inval(self, op: BusOp, time: int):
        hook = getattr(self.locks, "on_lock_inval", None)
        if hook is not None:
            hook(op.line, op.proc, time)
        return (self._addr_cycles, op.on_done)

    def _exec_lock_xfer(self, op: BusOp, time: int):
        return (self._addr_cycles + self._line_data_cycles, op.on_done)

    def _exec_data_return(self, op: BusOp, time: int):
        orig = op.orig
        hold = max(1, orig.return_cycles)
        self.memory.release_output(time)
        return (hold, lambda t: self._split_complete(orig, t))

    # -- coherent data operations --------------------------------------------
    def _exec_read_miss(self, op: BusOp, time: int):
        self._fills_in_flight[op.line] = op.proc
        if op.supplier is not None:
            where, p, wb = op.supplier
            if where == "cache":
                present, _dirty = self.caches[p].snoop_read(op.line)
                assert present
                # memory is updated during the transfer if dirty (Illinois)
            else:  # dirty line intercepted in a write-back buffer
                self.buffers[p].cancel(wb)
                self.procs[p].outstanding_wb -= 1
                self.buffers[p].notify_space(time)
            op.fill_state = SHARED
            hold = self._addr_cycles + self._line_data_cycles
            return (hold, lambda t: self._fill_complete(op, t))
        # from memory: Illinois loads EXCLUSIVE when no one else has it
        op.fill_state = EXCLUSIVE
        op.return_cycles = self._line_data_cycles
        self.memory.reserve()
        return (self._addr_cycles, lambda t: self.memory.arrive(op, t))

    def _exec_rfo(self, op: BusOp, time: int):
        self._fills_in_flight[op.line] = op.proc
        # the address phase invalidates every other copy (holders only;
        # snooping a cache without the line is a no-op)
        supplier = op.supplier
        holders = self.directory.get(op.line)
        if holders:
            for p in tuple(holders):  # copy: invalidation edits the directory
                if p != op.proc:
                    self.caches[p].snoop_invalidate(op.line)
        for p, buf in enumerate(self.buffers):
            if p == op.proc or not buf.wb_count:
                continue
            wb = buf.find(WRITEBACK, op.line)
            if wb is not None and not (supplier and supplier[2] is wb):
                buf.cancel(wb)
                self.procs[p].outstanding_wb -= 1
                buf.notify_space(time)
        op.fill_state = MODIFIED
        if supplier is not None:
            where, p, wb = supplier
            if where == "buffer":
                self.buffers[p].cancel(wb)
                self.procs[p].outstanding_wb -= 1
                self.buffers[p].notify_space(time)
            hold = self._addr_cycles + self._line_data_cycles
            return (hold, lambda t: self._fill_complete(op, t))
        op.return_cycles = self._line_data_cycles
        self.memory.reserve()
        return (self._addr_cycles, lambda t: self.memory.arrive(op, t))

    def _exec_upgrade(self, op: BusOp, time: int):
        cache = self.caches[op.proc]
        if op.line in cache.state:
            holders = self.directory.get(op.line)
            if holders:
                for p in tuple(holders):
                    if p != op.proc:
                        self.caches[p].snoop_invalidate(op.line)
            cache.set_state(op.line, MODIFIED)
            return (self._addr_cycles, lambda t: self._op_done(op, t))
        # line vanished: perform a full write miss instead
        op.converted = True
        self.upgrade_conversions += 1
        return self._exec_rfo(op, time)

    def _exec_writeback(self, op: BusOp, time: int):
        hold = self._addr_cycles + self._line_data_cycles
        self.memory.reserve()

        def done(t, op=op):  # memory arrival, then completion: the
            self.memory.arrive(op, t)  # order the two events fired in
            self._op_done(op, t)

        return (hold, done)

    def _exec_update(self, op: BusOp, time: int):
        """Write-update broadcast: sharers patch their copies in place
        (no state change -- everyone stays SHARED) and memory absorbs the
        words.  If our copy vanished while the update was buffered, the
        broadcast still updates memory and any remaining sharers."""
        hold = self._addr_cycles + 1  # address + one word-burst of data
        self.memory.reserve()

        def done(t, op=op):
            self.memory.arrive(op, t)
            self._op_done(op, t)

        return (hold, done)

    def _exec_writethrough(self, op: BusOp, time: int):
        # the bus write's address phase invalidates every other copy
        holders = self.directory.get(op.line)
        if holders:
            for p in tuple(holders):
                if p != op.proc:
                    self.caches[p].snoop_invalidate(op.line)
        hold = self._addr_cycles + 1  # address + one word of data
        self.memory.reserve()

        def done(t, op=op):
            self.memory.arrive(op, t)
            self._op_done(op, t)

        return (hold, done)

    # -- completions ----------------------------------------------------------
    def _split_complete(self, orig: BusOp, t: int) -> None:
        """The data-return phase of a split transaction finished."""
        if orig.kind in (READ_MISS, RFO) or (orig.kind == UPGRADE and orig.converted):
            self._fill_complete(orig, t)
        else:
            orig.on_done(t)

    def _fill_complete(self, op: BusOp, t: int) -> None:
        if self._fills_in_flight.get(op.line) == op.proc:
            del self._fills_in_flight[op.line]
        proc = self.procs[op.proc]
        proc.install_fill(op, t)
        self._op_done(op, t)
        # a miss on this line may have been waiting for the fill
        self.bus.kick(t)

    def _op_done(self, op: BusOp, t: int) -> None:
        if op.on_done is not None:
            op.on_done(t)
        else:
            self.procs[op.proc]._op_complete(op, t)

    # ------------------------------------------------------------------
    # Bus service: fused fast-path execution (MachineConfig.bus_fast_path)
    #
    # Same decisions and state effects as the reference executors above,
    # with the per-grant closures replaced by the _done_op slot + the
    # preallocated trampolines below, and the completion chain
    # (_fill_complete -> _op_done -> _op_complete) flattened into one
    # call.  The trailing bus.kick of the reference _fill_complete is
    # elided: on this path every fill completion fires inside Bus._fire
    # while the bus is still held, so the kick is provably a no-op (the
    # release that follows in the same event re-arbitrates anyway).
    # Differentially verified byte-identical (python -m repro diff-verify).
    # ------------------------------------------------------------------
    def _execute_fast(self, op: BusOp, time: int):
        k = op.kind
        if k != DATA_RETURN:
            # The granted op just left its processor's buffer: a slot
            # freed.  Only pay the notify call when someone is waiting.
            buf = self.buffers[op.proc]
            if buf._space_waiters:
                buf.notify_space(time)
        handler = self._exec_fast.get(k)
        if handler is None:
            raise ValueError(f"unexpected bus op kind {k}")
        return handler(op, time)

    # -- completion trampolines (read the slot, never allocate) ---------------
    def _complete_fill(self, t: int) -> None:
        op = self._done_op
        line = op.line
        p = op.proc
        fills = self._fills_in_flight
        if fills.get(line) == p:
            del fills[line]
        proc = self.procs[p]
        victim = self.caches[p].install(line, op.fill_state)  # proc.install_fill
        if victim is not None and victim[1]:  # only a dirty victim writes back
            proc._handle_eviction(victim)
        if op.on_done is not None:
            op.on_done(t)
        elif op.kind == READ_MISS and proc._wait_op is op and proc.state == _WAIT_MISS:
            # Processor._op_complete for the read miss its processor
            # waits on (always the case: a read miss blocks its issuer)
            proc.outstanding -= 1
            proc._miss_done(t)
            # Nothing holds the op any more: it left its buffer and the
            # memory at grant time, and a data return that named it was
            # dropped at its own grant.
            if self._reuse_ops:
                proc._free_read = op
        else:
            proc._op_complete(op, t)

    def _complete_op(self, t: int) -> None:
        op = self._done_op
        if op.on_done is not None:
            op.on_done(t)
            return
        proc = self.procs[op.proc]
        if op.kind == UPGRADE and proc._wait_op is op and proc.state == _WAIT_MISS:
            # Processor._op_complete for a stalling (SC) upgrade
            proc.outstanding -= 1
            if proc.pending_upgrades:
                proc.pending_upgrades.discard(op.line)
            proc._miss_done(t)
            if self._reuse_ops:  # nothing else holds the op: reuse it
                proc._free_upgrade = op
        else:
            proc._op_complete(op, t)

    def _complete_write(self, t: int) -> None:
        op = self._done_op  # memory arrival, then completion: the order
        self.memory.arrive(op, t)  # the reference path fired the two in
        if op.on_done is not None:
            op.on_done(t)
        else:
            self.procs[op.proc]._op_complete(op, t)

    # -- fused executors ------------------------------------------------------
    def _fexec_read_miss(self, op: BusOp, time: int):
        self._fills_in_flight[op.line] = op.proc
        if op.supplier is not None:
            where, p, wb = op.supplier
            if where == "cache":
                present, _dirty = self.caches[p].snoop_read(op.line)
                assert present
                # memory is updated during the transfer if dirty (Illinois)
            else:  # dirty line intercepted in a write-back buffer
                self.buffers[p].cancel(wb)
                self.procs[p].outstanding_wb -= 1
                self.buffers[p].notify_space(time)
            op.fill_state = SHARED
            self._done_op = op
            return self._ret_fill
        # from memory: Illinois loads EXCLUSIVE when no one else has it
        op.fill_state = EXCLUSIVE
        op.return_cycles = self._line_data_cycles
        mem = self.memory
        mem.reserve()
        mem._arriving = op
        return self._ret_arrive

    def _fexec_rfo(self, op: BusOp, time: int):
        self._fills_in_flight[op.line] = op.proc
        supplier = op.supplier
        holders = self.directory.get(op.line)
        if holders:
            for p in tuple(holders):  # copy: invalidation edits the directory
                if p != op.proc:
                    self.caches[p].snoop_invalidate(op.line)
        if self._wb_total[0]:  # any write-back buffered machine-wide?
            for p, buf in enumerate(self.buffers):
                if p == op.proc or not buf.wb_count:
                    continue
                wb = buf.find(WRITEBACK, op.line)
                if wb is not None and not (supplier and supplier[2] is wb):
                    buf.cancel(wb)
                    self.procs[p].outstanding_wb -= 1
                    buf.notify_space(time)
        op.fill_state = MODIFIED
        if supplier is not None:
            where, p, wb = supplier
            if where == "buffer":
                self.buffers[p].cancel(wb)
                self.procs[p].outstanding_wb -= 1
                self.buffers[p].notify_space(time)
            self._done_op = op
            return self._ret_fill
        op.return_cycles = self._line_data_cycles
        mem = self.memory
        mem.reserve()
        mem._arriving = op
        return self._ret_arrive

    def _fexec_upgrade(self, op: BusOp, time: int):
        cache = self.caches[op.proc]
        if op.line in cache.state:
            holders = self.directory.get(op.line)
            if holders:
                for p in tuple(holders):
                    if p != op.proc:
                        self.caches[p].snoop_invalidate(op.line)
            cache.state[op.line] = MODIFIED  # resident: just checked
            self._done_op = op
            return self._ret_op
        # line vanished: perform a full write miss instead
        op.converted = True
        self.upgrade_conversions += 1
        return self._fexec_rfo(op, time)

    def _fexec_writeback(self, op: BusOp, time: int):
        self.memory.reserve()
        self._done_op = op
        return self._ret_write_line

    def _fexec_update(self, op: BusOp, time: int):
        self.memory.reserve()
        self._done_op = op
        return self._ret_write_word

    def _fexec_writethrough(self, op: BusOp, time: int):
        holders = self.directory.get(op.line)
        if holders:
            for p in tuple(holders):
                if p != op.proc:
                    self.caches[p].snoop_invalidate(op.line)
        self.memory.reserve()
        self._done_op = op
        return self._ret_write_word

    def _fexec_lock_mem(self, op: BusOp, time: int):
        mem = self.memory
        mem.reserve()
        op.return_cycles = self._line_data_cycles
        mem._arriving = op
        return self._ret_arrive

    def _fexec_lock_read(self, op: BusOp, time: int):
        if op.supplier is not None:
            return (self._hold_xfer, op.on_done)
        mem = self.memory
        mem.reserve()
        op.return_cycles = self._line_data_cycles
        mem._arriving = op
        return self._ret_arrive

    def _fexec_lock_rfo(self, op: BusOp, time: int):
        # address phase invalidates every other cached copy
        hook = getattr(self.locks, "on_lock_rfo", None)
        if hook is not None:
            hook(op.line, op.proc, time)
        if op.supplier is not None and op.supplier[0] == "self":
            return (self._addr_cycles, op.on_done)
        if op.supplier is not None:
            return (self._hold_xfer, op.on_done)
        mem = self.memory
        mem.reserve()
        op.return_cycles = self._line_data_cycles
        mem._arriving = op
        return self._ret_arrive

    def _fexec_data_return(self, op: BusOp, time: int):
        # _split_complete's choice, made at grant time: a fill installs
        # its line; a lock operation's own callback is its completion
        orig = op.orig
        hold = orig.return_cycles
        if hold < 1:
            hold = 1
        mem = self.memory
        if self._reuse_ops:
            mem._free_return = op  # nothing else holds it: reuse it
        mem.release_output(time)
        k = orig.kind
        if k == READ_MISS or k == RFO or (k == UPGRADE and orig.converted):
            self._done_op = orig
            return (hold, self._cb_fill)
        return (hold, orig.on_done)

    # ------------------------------------------------------------------
    # Run + results
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        if self._ran:
            raise RuntimeError("System instances are single-use")
        self._ran = True
        # Only an auditor, a bus observer or a wrapped ``execute`` can hold
        # a granted op past its completion; with none attached, nothing
        # does, and the fast path reuses the op objects it finishes.
        self._reuse_ops = (
            self.config.bus_fast_path
            and self.audit is None
            and self.bus.observer is None
            # still the bound method __init__ installed (equal, not
            # identical: each attribute read binds a fresh method object)
            and self.execute == self._execute_fast
        )
        for proc in self.procs:
            proc.start()
        self.engine.run(max_events=self.max_events)
        if self._done_count != len(self.procs):
            stuck = [p.proc for p in self.procs if not p.done]
            if self.audit is not None:
                # Let the lock auditor name who is stuck on what (in
                # raise mode this surfaces as an AuditError instead).
                self.audit.on_deadlock(stuck)
            raise RuntimeError(
                f"simulation deadlocked: processors {stuck} never finished "
                f"(states: {[self.procs[p].state for p in stuck]})"
            )
        result = self._collect()
        if self.audit is not None:
            self.audit.finalize(result)
        return result

    def _collect(self) -> RunResult:
        run_time = max(p.metrics.completion_time for p in self.procs)
        agg = {
            "read_hits": 0,
            "read_misses": 0,
            "write_hits": 0,
            "write_misses": 0,
            "ifetch_hits": 0,
            "ifetch_misses": 0,
            "writebacks": 0,
            "c2c_supplied": 0,
            "invalidations_received": 0,
        }
        for cache in self.caches:
            c = cache.counters
            for key in agg:
                agg[key] += getattr(c, key)
        return RunResult(
            program=self.traceset.program,
            n_procs=self.config.n_procs,
            lock_scheme=self.locks.name,
            consistency=self.model.name,
            run_time=run_time,
            proc_metrics=tuple(p.metrics for p in self.procs),
            lock_stats=self.locks.stats.snapshot(),
            bus_busy_cycles=self.bus.busy_cycles,
            bus_op_counts=dict(self.bus.op_counts),
            buffer_max_occupancy=max(b.max_occupancy for b in self.buffers),
            meta={
                "upgrade_conversions": self.upgrade_conversions,
                "bus_grants": self.bus.grants,
                "memory_reads": self.memory.reads_serviced,
                "memory_writes": self.memory.writes_serviced,
                "drains": sum(p.metrics.drains for p in self.procs),
                "drains_nonempty": sum(p.metrics.drains_nonempty for p in self.procs),
            },
            # the run's dispatched engine events: a cost count, not a
            # result (equal runs of the two bus bundles share it today,
            # but nothing may depend on that)
            diagnostics={"engine_events": self.engine.dispatched_total},
            **agg,
        )

    def close(self) -> None:
        """Break the reference cycles among the parts this System built,
        so reference counting frees them: every attribute of the System,
        its processors, caches, buffers, bus, memory, memory port and
        engine is dropped; the lock and barrier managers and an auditor
        are detached (the auditor's report stays readable).  The inputs
        stay readable: ``traceset``, ``config``, ``model``, ``locks`` and
        ``barriers``.  A closed System cannot run again."""
        if not hasattr(self, "engine"):  # already closed
            return
        kept = (self.traceset, self.config, self.model, self.locks, self.barriers)
        for manager in (self.locks, self.barriers):
            if getattr(manager, "machine", None) is self:
                manager.machine = None
        audit = self.audit
        if audit is not None:  # it and its sub-auditors point at each other
            audit.system = None
            for part in (audit.coherence, audit.busproto, audit.locks, audit.accounting):
                part.top = None
        parts = (*self.procs, *self.caches, *self.buffers, self.bus, self.memory)
        for part in (*parts, self.memory.port, self.engine, self):
            _clear(part)
        self.traceset, self.config, self.model, self.locks, self.barriers = kept
        self._ran = True


def _clear(obj) -> None:
    """Drop every attribute of ``obj``: its instance dict and its slots."""
    getattr(obj, "__dict__", {}).clear()
    for name in getattr(type(obj), "__slots__", ()):
        if name != "__dict__" and hasattr(obj, name):
            delattr(obj, name)


def simulate(
    traceset: TraceSet,
    config: MachineConfig | None = None,
    lock_manager: LockManager | None = None,
    model: ConsistencyModel | None = None,
    barrier_manager=None,
    max_events: int | None = None,
) -> RunResult:
    """Build a System, run it and close it; returns the result.

    Defaults: paper machine configuration, queuing locks, sequential
    consistency.
    """
    from ..consistency import SEQUENTIAL
    from ..sync import QueuingLockManager

    if config is None:
        config = MachineConfig(n_procs=traceset.n_procs)
    if lock_manager is None:
        lock_manager = QueuingLockManager()
    if model is None:
        model = SEQUENTIAL
    system = System(
        traceset,
        config,
        lock_manager,
        model,
        barrier_manager=barrier_manager,
        max_events=max_events,
    )
    try:
        return system.run()
    finally:
        system.close()
