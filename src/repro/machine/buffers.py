"""Bus operations and the per-processor cache--bus interface buffer.

Every action a processor wants from the bus -- miss fills, write misses,
invalidations, write-backs, and the lock schemes' accesses -- is a
:class:`BusOp` queued in that processor's :class:`CacheBusBuffer` (depth
four by default, §2.2).  The buffer is the processor's bus port: the
arbiter peeks at its head.  Under weak ordering, loads and instruction
fetches may be placed at the *front* of the buffer, bypassing buffered
writes, write-backs and invalidations (§4.1); under sequential
consistency the buffer is strictly FIFO.

A dirty line sitting in the buffer as a pending write-back remains
visible to the coherence mechanism (§2.2): snoops search buffers via
:meth:`CacheBusBuffer.find` and may cancel the write-back when the line
is supplied cache-to-cache.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

__all__ = [
    "READ_MISS",
    "RFO",
    "UPGRADE",
    "WRITEBACK",
    "LOCK_MEM",
    "LOCK_READ",
    "LOCK_RFO",
    "LOCK_INVAL",
    "LOCK_XFER",
    "DATA_RETURN",
    "WRITETHROUGH",
    "UPDATE",
    "OP_NAMES",
    "BusOp",
    "CacheBusBuffer",
]

# -- bus operation kinds -------------------------------------------------------
READ_MISS = 0  # fetch a line for reading (ifetch or load miss)
RFO = 1  # read-for-ownership: write miss (write-allocate)
UPGRADE = 2  # invalidation signal: write hit on a SHARED line
WRITEBACK = 3  # evicted dirty line -> memory
LOCK_MEM = 4  # lock-scheme plain memory access (queuing acquire/release)
LOCK_READ = 5  # T&T&S read of the lock line
LOCK_RFO = 6  # T&T&S test-and-set (atomic read-modify-write)
LOCK_INVAL = 7  # T&T&S release: invalidate the spinners' cached copies
LOCK_XFER = 8  # queuing lock: cache-to-cache hand-off to the next waiter
DATA_RETURN = 9  # memory -> requester data phase of a split transaction
WRITETHROUGH = 10  # write-through mode: a word-sized write to memory
UPDATE = 11  # write-update protocol: broadcast written words to sharers+memory

OP_NAMES = {
    READ_MISS: "READ_MISS",
    RFO: "RFO",
    UPGRADE: "UPGRADE",
    WRITEBACK: "WRITEBACK",
    LOCK_MEM: "LOCK_MEM",
    LOCK_READ: "LOCK_READ",
    LOCK_RFO: "LOCK_RFO",
    LOCK_INVAL: "LOCK_INVAL",
    LOCK_XFER: "LOCK_XFER",
    DATA_RETURN: "DATA_RETURN",
    WRITETHROUGH: "WRITETHROUGH",
    UPDATE: "UPDATE",
}


class BusOp:
    """One bus operation.

    ``on_done(time)`` fires when the operation has fully completed (for a
    split transaction, when the data return finishes).  ``supplier`` is
    filled in at arbitration time: the cache (or buffer) that will source
    the line cache-to-cache, or None for a memory access.  ``ifetch``
    marks instruction fetches (for the counters only).
    """

    __slots__ = (
        "kind",
        "line",
        "proc",
        "on_done",
        "ifetch",
        "supplier",
        "orig",
        "cancelled",
        "fill_state",
        "return_cycles",
        "converted",
    )

    def __init__(
        self,
        kind: int,
        line: int,
        proc: int,
        on_done: Callable[[int], None] | None = None,
        ifetch: bool = False,
    ) -> None:
        self.kind = kind
        self.line = line
        self.proc = proc
        self.on_done = on_done
        self.ifetch = ifetch
        self.supplier = None
        self.orig = None  # for DATA_RETURN: the original request
        self.cancelled = False
        self.fill_state = 0  # MESI state the requester installs on completion
        self.return_cycles = 0  # data-phase bus cycles of a split transaction
        self.converted = False  # UPGRADE that lost its line and became an RFO

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BusOp({OP_NAMES[self.kind]}, line={self.line:#x}, proc={self.proc})"


class CacheBusBuffer:
    """The four-entry cache--bus interface buffer of one processor.

    Capacity gates *processor-initiated* entries only: write-backs
    generated by refills are always accepted (hardware reserves the slot
    as part of the fill), which also rules out refill deadlock.
    """

    def __init__(
        self, proc: int, depth: int, wb_shared: list[int] | None = None
    ) -> None:
        self.proc = proc
        self.depth = depth
        self.entries: deque[BusOp] = deque()
        self._space_waiters: list[Callable[[int], None]] = []
        self.max_occupancy = 0  # high-water mark (buffer-depth ablation)
        #: live buffered WRITEBACK entries; lets the snoop side skip the
        #: entry scan for the (overwhelmingly common) write-back-free case
        self.wb_count = 0
        #: optional machine-wide live write-back count (a shared one-cell
        #: list maintained alongside wb_count); when attached, the system
        #: skips the all-buffers supplier scan while it reads zero
        self.wb_shared = wb_shared
        #: set by Bus.add_port: call on every enqueue so the arbiter
        #: knows which ports can possibly have work
        self.ready_cb: Callable[[], None] | None = None

    # -- queue discipline ---------------------------------------------------
    def has_space(self) -> bool:
        return len(self.entries) < self.depth

    def push(self, op: BusOp) -> None:
        """Append at the tail (program order)."""
        entries = self.entries
        entries.append(op)
        if op.kind == WRITEBACK:
            self.wb_count += 1
            if self.wb_shared is not None:
                self.wb_shared[0] += 1
        n = len(entries)
        if n > self.max_occupancy:
            self.max_occupancy = n
        cb = self.ready_cb
        if cb is not None:
            cb()

    def push_front(self, op: BusOp) -> None:
        """Bypass to the head (weak-ordering load/ifetch bypass)."""
        entries = self.entries
        entries.appendleft(op)
        if op.kind == WRITEBACK:
            self.wb_count += 1
            if self.wb_shared is not None:
                self.wb_shared[0] += 1
        n = len(entries)
        if n > self.max_occupancy:
            self.max_occupancy = n
        cb = self.ready_cb
        if cb is not None:
            cb()

    # -- bus port interface ------------------------------------------------
    def peek(self) -> BusOp | None:
        while self.entries and self.entries[0].cancelled:
            self.entries.popleft()
        return self.entries[0] if self.entries else None

    def pop(self) -> BusOp:
        op = self.entries.popleft()
        if op.kind == WRITEBACK:
            self.wb_count -= 1
            if self.wb_shared is not None:
                self.wb_shared[0] -= 1
        return op

    def __len__(self) -> int:
        return sum(1 for e in self.entries if not e.cancelled)

    # -- snooping into the buffer ----------------------------------------------
    def find(self, kind: int, line: int) -> BusOp | None:
        """Find a live entry of ``kind`` for ``line`` (snoop visibility)."""
        for op in self.entries:
            if not op.cancelled and op.kind == kind and op.line == line:
                return op
        return None

    def cancel(self, op: BusOp) -> None:
        """Mark an entry dead (e.g. a write-back whose line was supplied
        cache-to-cache).  Lazily removed by :meth:`peek`."""
        if not op.cancelled:
            op.cancelled = True
            if op.kind == WRITEBACK:
                self.wb_count -= 1
                if self.wb_shared is not None:
                    self.wb_shared[0] -= 1

    # -- space waiting ------------------------------------------------------------
    def wait_for_space(self, fn: Callable[[int], None]) -> None:
        """Register ``fn(time)`` to run once a slot frees up."""
        self._space_waiters.append(fn)

    def notify_space(self, time: int) -> None:
        """Called by the system whenever an entry leaves the buffer."""
        if self._space_waiters and self.has_space():
            waiters, self._space_waiters = self._space_waiters, []
            for fn in waiters:
                fn(time)
