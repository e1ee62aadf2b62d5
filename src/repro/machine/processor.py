"""Per-processor trace interpreter.

Each processor replays its reference stream against its own cache,
stalling per the configured consistency model and lock scheme.  The
interpreter advances its *local* clock through cache hits without
touching the global event queue, re-synchronizing with the engine every
``batch_records`` records or whenever it must interact with the shared
machinery (a miss, a buffered write, a synchronization point).  This
record-by-record loop is the only way a trace record retires.

Stall bookkeeping matches the paper's: time lost to cache misses, to
waiting for locks (including acquire/release overhead), to weak-ordering
drains at synchronization points, and to a full cache--bus buffer.
"""

from __future__ import annotations

import weakref
from heapq import heappush as _heappush

from ..consistency.base import ConsistencyModel
from ..trace.records import BARRIER, IBLOCK, LOCK, READ, UNLOCK, WRITE, Trace
from .buffers import (
    READ_MISS,
    RFO,
    UPDATE,
    UPGRADE,
    WRITEBACK,
    WRITETHROUGH,
    BusOp,
)
from .cache import EXCLUSIVE, MODIFIED, SHARED, Cache
from .engine import Engine
from .metrics import ProcMetrics

__all__ = ["Processor"]

_WORD_SHIFT = 2  # REP_STRIDE == 4-byte elements, and 4-byte instructions

# Per-trace interpreter tables, memoized across System instances: the
# ``.tolist()`` record columns are pure functions of the (immutable)
# record array, and a suite run simulates the same traceset under
# several machine configurations.  Keyed by ``id(records)`` with a
# weakref identity check so a recycled id of a garbage-collected array
# can never alias; the weakref's callback drops the entry when the
# array dies, so a dropped trace's tables go with it.
_interp_memo: dict[int, tuple] = {}


def _interp_evict(ref, key: int) -> None:
    if _interp_memo.get(key, (None,))[0] is ref:
        del _interp_memo[key]


def _interp_tables(trace):
    rec = trace.records
    key = id(rec)
    ent = _interp_memo.get(key)
    if ent is None or ent[0]() is not rec:
        if len(_interp_memo) >= 256:  # bound the cache across many tracesets
            _interp_memo.clear()
        ent = (
            weakref.ref(rec, lambda ref, key=key: _interp_evict(ref, key)),
            rec["kind"].tolist(),
            rec["addr"].tolist(),
            rec["arg"].tolist(),
            rec["cycles"].tolist(),
        )
        _interp_memo[key] = ent
    return ent[1:]


# blocked states
_RUNNING = 0
_WAIT_MISS = 1
_WAIT_LOCK = 2
_WAIT_DRAIN = 3
_WAIT_BUFFER = 4
_DONE = 5


class Processor:
    """One simulated CPU: trace cursor, local clock, stall state."""

    # Slots, not an instance dict: past about 30 attributes CPython stops
    # sharing one key table among a class's instance dicts, and every
    # attribute access on the hot path gets slower (measured on the
    # paper grid: this class and System together, about 5 percent).
    __slots__ = (
        "_addr",
        "_arg",
        "batch",
        "_bypass_reads",
        "cache",
        "_cycles",
        "done",
        "_engine",
        "_free_read",
        "_free_upgrade",
        "_hot",
        "idx",
        "_issue_append",
        "_issue_cb",
        "_kind",
        "_line_shift",
        "metrics",
        "model",
        "_n",
        "outstanding",
        "outstanding_wb",
        "pending_upgrades",
        "pending_writes",
        "pos",
        "_post_drain",
        "proc",
        "_run_cb",
        "_sched_inline",
        "_stall_on_upgrade",
        "_stall_on_write_miss",
        "_stall_start",
        "state",
        "system",
        "time",
        "_wait_op",
        "_words_per_line",
        "_write_update",
        "_writethrough",
    )

    def __init__(
        self,
        proc: int,
        trace: Trace,
        cache: Cache,
        system,  # repro.machine.system.System
        model: ConsistencyModel,
        batch_records: int,
        bus_fast_path: bool = True,
    ) -> None:
        self.proc = proc
        self.cache = cache
        self.system = system
        self.model = model
        self.batch = batch_records
        self.metrics = ProcMetrics(proc)

        self._line_shift = cache.config.offset_bits
        self._words_per_line = cache.config.line_bytes >> _WORD_SHIFT
        self._writethrough = cache.config.write_policy == "writethrough"
        self._write_update = system.protocol.write_update

        # Plain lists index several times faster than numpy scalars in
        # the per-record hot loop (see the hpc guides: measure first --
        # this was the profiled bottleneck); memoized per trace.
        self._kind, self._addr, self._arg, self._cycles = _interp_tables(trace)
        self._n = len(self._kind)

        # Everything ``_run`` reads on entry, packed into one tuple: the
        # interpreter resumes once per engine event (tens of thousands of
        # times per run) and a single unpack is much cheaper than ~25
        # attribute loads.  All members are stable references.
        self._hot = (
            self._kind,
            self._addr,
            self._arg,
            self._cycles,
            cache,
            cache.counters,
            self.metrics,
            self._line_shift,
            self._words_per_line,
            self._n,
            cache.state.get,
            cache._ways,
            cache._set_mask,
            cache.assoc,
            bus_fast_path,
            system.buffers[proc],
        )
        #: preallocated resume callback: the interpreter re-enters through
        #: the engine tens of thousands of times per run, and scheduling a
        #: cached bound method avoids allocating a fresh one each time
        self._run_cb = self._run
        # inline engine scheduling on the completion-resume path (bucket
        # append without the ``at`` call) is only exact against the
        # production Engine's internals
        self._sched_inline = bus_fast_path and type(system.engine) is Engine
        self._engine = system.engine
        # fast path: this processor's issue queue (append) and push
        # trampoline, bound by the system once both exist
        self._issue_append = None
        self._issue_cb = None
        self._bypass_reads = model.bypass_reads
        self._stall_on_upgrade = model.stall_on_upgrade
        self._stall_on_write_miss = model.stall_on_write_miss
        #: fast path: a finished read miss no one references any more,
        #: reused by this processor's next read miss
        self._free_read: BusOp | None = None
        #: fast path: the same for a finished stalling upgrade
        self._free_upgrade: BusOp | None = None

        self.time = 0
        self.idx = 0
        self.pos = 0  # elementary refs consumed within the current record
        self.state = _RUNNING
        #: program accesses issued but not performed (gates WO drains)
        self.outstanding = 0
        #: write-backs in flight -- visible to snooping, so they never
        #: gate a synchronization drain (the store that dirtied the line
        #: already performed when it hit the cache)
        self.outstanding_wb = 0
        self._stall_start = 0
        self._wait_op: BusOp | None = None
        self._post_drain: tuple | None = None
        # weak ordering: lines with a buffered (non-stalling) RFO in flight
        self.pending_writes: dict[int, BusOp] = {}
        # weak ordering: SHARED lines with a buffered invalidation in flight
        self.pending_upgrades: set[int] = set()
        self.done = False

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        self.system.engine.at(0, self._run_cb)

    def _finish(self, t: int) -> None:
        self.state = _DONE
        self.done = True
        self.metrics.completion_time = t
        self.system.on_proc_done(self.proc, t)

    # -- the interpreter loop ------------------------------------------------------
    def _run(self, _t: int) -> None:
        # self.time is authoritative; the engine event merely resumes us.
        (
            kinds,
            addrs,
            args,
            cycs,
            cache,
            ctr,
            met,
            line_shift,
            wpl,
            n,
            sget,
            ways,
            set_mask,
            assoc,
            ilk,  # contended-path fast path: inline the cache lookup
            buf,
        ) = self._hot
        budget = self.batch
        self.state = _RUNNING
        # the record cursor lives in ``i`` while the loop runs; every exit
        # stores it back to ``self.idx`` (nothing the loop calls reads it)
        i = self.idx

        while True:
            if budget <= 0:
                self.idx = i
                self.system.engine.at(self.time, self._run_cb)
                return
            budget -= 1
            if i >= n:
                self.idx = i
                self._finish(self.time)
                return

            k = kinds[i]

            if k == IBLOCK:
                n_i = args[i]
                pos = self.pos
                if pos < n_i:
                    # Walk the record's lines, first to last: refs step
                    # one word, so a chunk is the record's share of one
                    # line, and where a chunk ends is known from its line
                    # alone.  Hits are counted once, when the walk ends.
                    base = addrs[i]
                    line = (base + (pos << _WORD_SHIFT)) >> line_shift
                    last = (base + ((n_i - 1) << _WORD_SHIFT)) >> line_shift
                    while True:
                        # inlined cache.lookup: probe + MRU refresh (the
                        # method call itself is measurable at this rate).
                        # ``st`` is None on a miss, which tests like INVALID.
                        if ilk:
                            st = sget(line)
                            if st is not None:
                                base_w = (line & set_mask) * assoc
                                if ways[base_w] != line:
                                    if assoc == 2:
                                        ways[base_w + 1] = ways[base_w]
                                        ways[base_w] = line
                                    else:
                                        w = base_w + 1
                                        while ways[w] != line:
                                            w += 1
                                        while w > base_w:
                                            ways[w] = ways[w - 1]
                                            w -= 1
                                        ways[base_w] = line
                        else:
                            st = cache.lookup(line)
                        if not st:
                            # the chunk ends at the next line's first word
                            end = (line + 1) * wpl - (base >> _WORD_SHIFT)
                            if end > n_i:
                                end = n_i
                            ctr.ifetch_misses += 1
                            ctr.ifetch_hits += end - pos - 1
                            met.refs_processed += end - pos
                            self.pos = end
                            self.idx = i
                            self._block_on_read_miss(line, True)
                            return
                        if line == last:
                            break
                        line += 1
                    ctr.ifetch_hits += n_i - pos
                    met.refs_processed += n_i - pos
                self.pos = 0
                c = cycs[i]
                self.time += c
                met.work_cycles += c
                i += 1

            elif k == READ:
                reps = args[i]
                pos = self.pos
                if pos < reps:
                    # the IBLOCK handler's line walk
                    base = addrs[i]
                    line = (base + (pos << _WORD_SHIFT)) >> line_shift
                    last = (base + ((reps - 1) << _WORD_SHIFT)) >> line_shift
                    while True:
                        # inlined cache.lookup (see the IBLOCK handler)
                        if ilk:
                            st = sget(line)
                            if st is not None:
                                base_w = (line & set_mask) * assoc
                                if ways[base_w] != line:
                                    if assoc == 2:
                                        ways[base_w + 1] = ways[base_w]
                                        ways[base_w] = line
                                    else:
                                        w = base_w + 1
                                        while ways[w] != line:
                                            w += 1
                                        while w > base_w:
                                            ways[w] = ways[w - 1]
                                            w -= 1
                                        ways[base_w] = line
                        else:
                            st = cache.lookup(line)
                        if not st:
                            end = (line + 1) * wpl - (base >> _WORD_SHIFT)
                            if end > reps:
                                end = reps
                            # A weakly-ordered read of a line whose write
                            # miss is still buffered must wait for its own
                            # store's data.
                            pw = self.pending_writes
                            wop = pw.get(line) if pw else None
                            if wop is not None:
                                ctr.read_hits += end - pos
                                met.refs_processed += end - pos
                                self.pos = end
                                self.idx = i
                                self._block_on_op(wop)
                                return
                            # Buffer hit: our own evicted dirty copy is
                            # still queued for write-back; reclaim it.
                            if not (buf.wb_count and self._reclaim_from_buffer(line)):
                                ctr.read_misses += 1
                                ctr.read_hits += end - pos - 1
                                met.refs_processed += end - pos
                                self.pos = end
                                self.idx = i
                                self._block_on_read_miss(line, False)
                                return
                        if line == last:
                            break
                        line += 1
                    ctr.read_hits += reps - pos
                    met.refs_processed += reps - pos
                self.pos = 0
                i += 1

            elif k == WRITE:
                base = addrs[i]
                reps = args[i]
                pos = self.pos
                blocked = False
                while pos < reps:
                    byte = base + (pos << _WORD_SHIFT)
                    line = byte >> line_shift
                    word = (byte >> _WORD_SHIFT) & (wpl - 1)
                    chunk = reps - pos
                    room = wpl - word
                    if chunk > room:
                        chunk = room
                    if self._writethrough:
                        # Write-through, no-allocate: every write chunk is
                        # a word-burst to memory; the cached copy (if any)
                        # is updated in place and other copies invalidate
                        # on the bus write's address phase.
                        # inlined cache.lookup; st is None on a miss,
                        # which tests and compares exactly like INVALID
                        if ilk:
                            st = sget(line)
                            if st is not None:
                                base_w = (line & set_mask) * assoc
                                if ways[base_w] != line:
                                    if assoc == 2:
                                        ways[base_w + 1] = ways[base_w]
                                        ways[base_w] = line
                                    else:
                                        w = base_w + 1
                                        while ways[w] != line:
                                            w += 1
                                        while w > base_w:
                                            ways[w] = ways[w - 1]
                                            w -= 1
                                        ways[base_w] = line
                        else:
                            st = cache.lookup(line)
                        if st:
                            ctr.write_hits += chunk
                        else:
                            ctr.write_misses += 1
                            ctr.write_hits += chunk - 1
                        met.refs_processed += chunk
                        self.pos = pos + chunk
                        wt = BusOp(WRITETHROUGH, line, self.proc)
                        if self._stall_on_write_miss:
                            self._stall_on_op(wt)
                            blocked = True
                            break
                        if not self.system.buffers[self.proc].has_space():
                            self.pos = pos
                            # undo the provisional counting: the access
                            # re-executes once space frees
                            if st:
                                ctr.write_hits -= chunk
                            else:
                                ctr.write_misses -= 1
                                ctr.write_hits -= chunk - 1
                            met.refs_processed -= chunk
                            self._wait_for_space()
                            blocked = True
                            break
                        self.outstanding += 1
                        self.system.issue_from_proc(wt, self.time, front=False)
                        pos += chunk
                        continue
                    # inlined cache.lookup; st is None on a miss, which
                    # compares unequal to every MESI state like INVALID
                    if ilk:
                        st = sget(line)
                        if st is not None:
                            base_w = (line & set_mask) * assoc
                            if ways[base_w] != line:
                                if assoc == 2:
                                    ways[base_w + 1] = ways[base_w]
                                    ways[base_w] = line
                                else:
                                    w = base_w + 1
                                    while ways[w] != line:
                                        w += 1
                                    while w > base_w:
                                        ways[w] = ways[w - 1]
                                        w -= 1
                                    ways[base_w] = line
                    else:
                        st = cache.lookup(line)
                    if st == MODIFIED:
                        ctr.write_hits += chunk
                        pos += chunk
                        met.refs_processed += chunk
                        continue
                    if st == EXCLUSIVE:
                        cache.set_state(line, MODIFIED)
                        ctr.write_hits += chunk
                        pos += chunk
                        met.refs_processed += chunk
                        continue
                    if st == SHARED:
                        if self._write_update:
                            # write-update protocol: broadcast the words;
                            # the line stays SHARED in every cache
                            if self._stall_on_upgrade:
                                ctr.write_hits += chunk
                                met.refs_processed += chunk
                                self.pos = pos + chunk
                                self._stall_on_op(BusOp(UPDATE, line, self.proc))
                                blocked = True
                                break
                            if not self.system.buffers[self.proc].has_space():
                                self.pos = pos
                                self._wait_for_space()
                                blocked = True
                                break
                            ctr.write_hits += chunk
                            met.refs_processed += chunk
                            op = BusOp(UPDATE, line, self.proc)
                            self.outstanding += 1
                            self.system.issue_from_proc(op, self.time, front=False)
                            pos += chunk
                            continue
                        if line in self.pending_upgrades:
                            # invalidation already buffered; write combines
                            ctr.write_hits += chunk
                            pos += chunk
                            met.refs_processed += chunk
                            continue
                        if self._stall_on_upgrade:
                            ctr.write_hits += chunk
                            met.refs_processed += chunk
                            self.pos = pos + chunk
                            up = self._free_upgrade
                            if up is None:
                                up = BusOp(UPGRADE, line, self.proc)
                            else:  # reuse (see System._complete_op)
                                self._free_upgrade = None
                                up.line = line
                                up.supplier = None
                            self._stall_on_op(up)
                            blocked = True
                            break
                        if not self.system.buffers[self.proc].has_space():
                            self.pos = pos  # re-execute this access on resume
                            self._wait_for_space()
                            blocked = True
                            break
                        ctr.write_hits += chunk
                        met.refs_processed += chunk
                        self.pending_upgrades.add(line)
                        op = BusOp(UPGRADE, line, self.proc)
                        self.outstanding += 1
                        self.system.issue_from_proc(op, self.time, front=False)
                        pos += chunk
                        continue
                    # miss
                    pw = self.pending_writes
                    if pw and pw.get(line) is not None:
                        # write to a line whose RFO is already in flight
                        ctr.write_hits += chunk
                        pos += chunk
                        met.refs_processed += chunk
                        continue
                    if buf.wb_count and self._reclaim_from_buffer(line):
                        ctr.write_hits += chunk
                        met.refs_processed += chunk
                        pos += chunk
                        continue
                    if self._stall_on_write_miss:
                        ctr.write_misses += 1
                        ctr.write_hits += chunk - 1
                        met.refs_processed += chunk
                        self.pos = pos + chunk
                        rfo = BusOp(RFO, line, self.proc)
                        rfo.fill_state = MODIFIED
                        self._stall_on_op(rfo)
                        blocked = True
                        break
                    if not self.system.buffers[self.proc].has_space():
                        self.pos = pos  # re-execute this access on resume
                        self._wait_for_space()
                        blocked = True
                        break
                    ctr.write_misses += 1
                    ctr.write_hits += chunk - 1
                    met.refs_processed += chunk
                    rfo = BusOp(RFO, line, self.proc)
                    rfo.fill_state = MODIFIED
                    self.pending_writes[line] = rfo
                    self.outstanding += 1
                    self.system.issue_from_proc(rfo, self.time, front=False)
                    pos += chunk
                    continue
                if blocked:
                    self.idx = i
                    return
                self.pos = 0
                i += 1

            elif k == LOCK or k == UNLOCK:
                # Re-enter through the engine so the lock manager runs with
                # the global clock at this processor's local time.
                self.idx = i + 1
                kk, ident, la = k, args[i], addrs[i]
                self.system.engine.at(
                    self.time, lambda t: self._begin_sync(kk, ident, la)
                )
                return

            elif k == BARRIER:
                self.idx = i + 1
                ident = args[i]
                self.system.engine.at(
                    self.time, lambda t: self._begin_sync(BARRIER, ident, 0)
                )
                return

            else:  # pragma: no cover - validated traces exclude this
                raise ValueError(f"unknown record kind {k} at index {i}")

    # -- miss paths -----------------------------------------------------------------
    def _reclaim_from_buffer(self, line: int) -> bool:
        """If our own write-back of ``line`` is still buffered, pull it
        back into the cache (one-cycle buffer hit)."""
        buf = self.system.buffers[self.proc]
        if not buf.wb_count:  # no live write-back buffered: nothing to find
            return False
        wb = buf.find(WRITEBACK, line)
        if wb is None:
            return False
        buf.cancel(wb)
        self.outstanding_wb -= 1
        victim = self.cache.install(line, MODIFIED)
        self._handle_eviction(victim)
        self.time += 1
        self.metrics.stall_miss += 1  # one-cycle buffer-hit penalty
        return True

    def _block_on_read_miss(self, line: int, ifetch: bool) -> None:
        op = self._free_read
        if op is None:
            op = BusOp(READ_MISS, line, self.proc, None, ifetch)
        else:  # reuse this processor's last read miss (see System._complete_fill)
            self._free_read = None
            op.line = line
            op.ifetch = ifetch
            op.supplier = None
            op.fill_state = 0
            op.return_cycles = 0
        self.state = _WAIT_MISS
        t = self.time
        self._stall_start = t
        self._wait_op = op
        self.outstanding += 1
        if not self._sched_inline:
            self.system.issue_from_proc(op, t, self._bypass_reads)
            return
        # the fast issue_from_proc, inlined: queue the entry and schedule
        # this processor's push trampoline at max(local, now)
        eng = self._engine
        if t < eng.now:
            t = eng.now
        self._issue_append((op, self._bypass_reads))
        if type(t) is int:
            buckets = eng._buckets
            b = buckets.get(t)
            if b is None:
                buckets[t] = [self._issue_cb]
                _heappush(eng._times, t)
            else:
                b.append(self._issue_cb)
            eng._pending += 1
        else:
            eng.at(t, self._issue_cb)

    def _block_on_op(self, op: BusOp) -> None:
        """Stall until an already-issued operation (e.g. our own buffered
        RFO whose data a read now needs) completes."""
        self.state = _WAIT_MISS
        self._stall_start = self.time
        self._wait_op = op

    def _stall_on_op(self, op: BusOp) -> None:
        """Issue ``op`` and stall until it completes (the SC paths)."""
        self.state = _WAIT_MISS
        self._stall_start = self.time
        self._wait_op = op
        self.outstanding += 1
        self.system.issue_from_proc(op, self.time, front=False)

    def _wait_for_space(self) -> None:
        self.state = _WAIT_BUFFER
        self._stall_start = self.time
        buf = self.system.buffers[self.proc]
        t0 = self.time

        def resumed(t: int) -> None:
            # The local clock may be ahead of the engine when the slot
            # frees; the processor only stalled for the cycles past t0.
            if t > t0:
                self.metrics.stall_buffer += t - t0
            self.time = max(self.time, t)
            self.system.engine.at(self.time, self._run_cb)

        buf.wait_for_space(resumed)

    def _handle_eviction(self, victim) -> None:
        if victim is None:
            return
        vline, dirty = victim
        if dirty:
            wb = BusOp(WRITEBACK, vline, self.proc)
            self.outstanding_wb += 1
            self.cache.counters.writebacks += 1
            self.system.issue_from_proc(wb, self.time, front=False)

    # -- synchronization points --------------------------------------------------------
    def _begin_sync(self, kind: int, ident: int, lock_addr: int) -> None:
        """LOCK/UNLOCK/BARRIER record: drain if weakly ordered, then hand
        off to the lock/barrier manager."""
        if self.model.drain_at_sync:
            self.metrics.drains += 1
            if self.outstanding > 0:
                self.metrics.drains_nonempty += 1
                self._stall_start = self.time
                self.state = _WAIT_DRAIN
                self._post_drain = (kind, ident, lock_addr)
                return
        self._sync_action(kind, ident, lock_addr)

    def _sync_action(self, kind: int, ident: int, lock_addr: int) -> None:
        self.state = _WAIT_LOCK
        self._stall_start = self.time
        line = lock_addr >> self._line_shift

        def resumed(t: int, contended: bool) -> None:
            # The paper's "lock wait" stall cause is time lost *waiting*
            # for a held lock; the memory-access overhead of uncontended
            # acquires/releases stalls the processor like any other
            # memory access (Pverify: 555 lock pairs, 0.0% lock stalls).
            if contended:
                self.metrics.stall_lock += t - self._stall_start
            else:
                self.metrics.stall_miss += t - self._stall_start
            self.time = max(self.time, t)
            self.state = _RUNNING
            self.system.engine.at(self.time, self._run_cb)

        if kind == LOCK:
            self.system.lock_acquire(self.proc, ident, line, self.time, resumed)
        elif kind == UNLOCK:
            self.system.lock_release(self.proc, ident, line, self.time, resumed)
        else:  # BARRIER
            self.system.barrier_arrive(self.proc, ident, self.time, resumed)

    # -- completion notifications (called by the System) ----------------------------------
    def _op_complete(self, op: BusOp, t: int) -> None:
        kind = op.kind
        if kind == WRITEBACK:
            self.outstanding_wb -= 1
            return  # write-backs never unblock the processor
        self.outstanding -= 1
        if kind == RFO:
            if self.pending_writes.get(op.line) is op:
                del self.pending_writes[op.line]
        elif kind == UPGRADE:
            self.pending_upgrades.discard(op.line)

        if self.state == _WAIT_MISS and self._wait_op is op:
            self._miss_done(t)
        elif self.state == _WAIT_DRAIN and self.outstanding == 0:
            if t > self._stall_start:
                self.metrics.stall_drain += t - self._stall_start
            self.time = max(self.time, t)
            kind, ident, lock_addr = self._post_drain
            self._sync_action(kind, ident, lock_addr)

    def _miss_done(self, t: int) -> None:
        """The op this processor stalls on completed at ``t``: charge the
        stall, catch the local clock up and schedule the resume."""
        # The waited-on op may have been issued before the stall began
        # (a pending write the processor later blocked on), so it can
        # complete before the run-ahead local clock: no stall at all.
        if t > self._stall_start:
            self.metrics.stall_miss += t - self._stall_start
        self._wait_op = None
        t2 = self.time
        if t > t2:
            t2 = self.time = t
        self.state = _RUNNING
        eng = self._engine
        if self._sched_inline and type(t2) is int:
            # inlined Engine.at: t2 = max(local, t) >= t = now
            buckets = eng._buckets
            b = buckets.get(t2)
            if b is None:
                buckets[t2] = [self._run_cb]
                _heappush(eng._times, t2)
            else:
                b.append(self._run_cb)
            eng._pending += 1
        else:
            eng.at(t2, self._run_cb)

    def install_fill(self, op: BusOp, t: int) -> None:
        """A READ_MISS/RFO (or converted UPGRADE) fetched its line."""
        victim = self.cache.install(op.line, op.fill_state)
        self._handle_eviction(victim)
