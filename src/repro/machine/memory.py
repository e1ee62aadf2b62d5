"""Main-memory module with input and output buffering (§2.2).

Because the bus is split-transaction, "a request may arrive at the
memory while a previous request is being processed" -- hence a two-entry
input buffer -- and "the bus may be busy when a memory access completes"
-- hence a two-entry output buffer.  The module services one request at a
time (three cycles each); read results wait in the output buffer for the
memory's own bus port to win arbitration for the data-return phase.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush

from .buffers import DATA_RETURN, UPDATE, WRITEBACK, WRITETHROUGH, BusOp

#: request kinds that produce no data return (pure writes into memory)
_WRITE_KINDS = frozenset({WRITEBACK, WRITETHROUGH, UPDATE})
from .config import MemoryConfig
from .engine import Engine

__all__ = ["Memory", "MemoryPort"]


class Memory:
    """The memory module: reserved-slot input queue, serial service,
    bounded output queue."""

    def __init__(
        self, engine: Engine, config: MemoryConfig, fast_path: bool = True
    ) -> None:
        self.engine = engine
        self.config = config
        self._in_cap = config.input_buffer
        self._out_cap = config.output_buffer
        self._access = config.access_cycles
        self._in: deque[BusOp] = deque()
        self._reserved = 0  # slots promised at bus-grant time but not yet arrived
        self._out: deque[BusOp] = deque()
        self._busy = False
        self.port = MemoryPort(self)
        self._bus_kick = None  # set by the system: callable(time)
        # fast path (MachineConfig.bus_fast_path): the module services one
        # request at a time, so the request in service rides a single slot
        # and its completion is one preallocated bound method instead of a
        # fresh closure per service
        self._fast = fast_path
        self._servicing: BusOp | None = None
        self._done_cb = self._slot_done
        # fast path: the granted request whose address phase is on the
        # bus (single slot: one transaction on the bus at a time), and
        # its arrival as one preallocated bound method
        self._arriving: BusOp | None = None
        self._arrive_cb = self._slot_arrive
        #: fast path: a granted data return no one references any more,
        #: reused by the next read's reply (see System._fexec_data_return)
        self._free_return: BusOp | None = None
        # inline engine scheduling (bucket append without the ``at``
        # call) is only exact against the production Engine's internals
        self._sched_inline = fast_path and type(engine) is Engine
        # statistics
        self.reads_serviced = 0
        self.writes_serviced = 0
        self.busy_cycles = 0

    # -- input side -----------------------------------------------------------
    def can_accept(self) -> bool:
        """Is there input-buffer space for one more request?  Checked by
        the arbiter before granting a memory-bound operation."""
        return len(self._in) + self._reserved < self._in_cap

    def reserve(self) -> None:
        """Claim an input slot at bus-grant time (the request is still in
        flight on the bus)."""
        if len(self._in) + self._reserved >= self._in_cap:  # not can_accept()
            raise RuntimeError("memory input buffer over-committed")
        self._reserved += 1

    def arrive(self, op: BusOp, time: int) -> None:
        """The request's bus phase finished; it lands in the input buffer."""
        if self._reserved <= 0:
            raise RuntimeError("arrival without reservation")
        self._reserved -= 1
        self._in.append(op)
        self._maybe_start(time)

    def _slot_arrive(self, time: int) -> None:
        """Fast path: :meth:`arrive` for the request in the arriving slot."""
        if self._reserved <= 0:
            raise RuntimeError("arrival without reservation")
        self._reserved -= 1
        self._in.append(self._arriving)
        self._maybe_start(time)

    # -- service --------------------------------------------------------------
    def _maybe_start(self, time: int) -> None:
        if self._busy or not self._in:
            return
        # A read needs an output slot; don't start one we cannot finish.
        head = self._in[0]
        if head.kind not in _WRITE_KINDS and len(self._out) >= self._out_cap:
            # Writes produce no reply and may always start.
            return
        op = self._in.popleft()
        self._busy = True
        self.busy_cycles += self._access
        if self._fast:
            self._servicing = op
            t = time + self._access
            eng = self.engine
            if self._sched_inline and type(t) is int and t >= eng.now:
                # inlined Engine.at (the guard re-proves its checks)
                buckets = eng._buckets
                b = buckets.get(t)
                if b is None:
                    buckets[t] = [self._done_cb]
                    _heappush(eng._times, t)
                else:
                    b.append(self._done_cb)
                eng._pending += 1
            else:
                eng.at(t, self._done_cb)
        else:
            self.engine.at(
                time + self.config.access_cycles, lambda t, op=op: self._done(op, t)
            )
        # Input-queue space just freed: a memory-bound bus op may now be
        # issuable, so re-arbitrate.
        if self._bus_kick is not None:
            self._bus_kick(time)

    def _slot_done(self, time: int) -> None:
        # read the slot before _maybe_start can refill it
        op = self._servicing
        self._servicing = None
        self._done(op, time)

    def _done(self, op: BusOp, time: int) -> None:
        self._busy = False
        if op.kind in _WRITE_KINDS:
            self.writes_serviced += 1
        else:
            self.reads_serviced += 1
            ret = self._free_return
            if ret is None:
                ret = BusOp(DATA_RETURN, op.line, op.proc)
            else:
                self._free_return = None
                ret.line = op.line
                ret.proc = op.proc
            ret.orig = op
            self._out.append(ret)
            cb = self.port.ready_cb
            if cb is not None:
                cb()
        self._maybe_start(time)
        if self._bus_kick is not None:
            self._bus_kick(time)

    # -- output side ---------------------------------------------------------
    def release_output(self, time: int) -> None:
        """A data return was granted the bus; its output slot frees and a
        stalled service may begin."""
        self._maybe_start(time)

    # -- introspection -------------------------------------------------------
    def pending(self) -> int:
        return len(self._in) + self._reserved + len(self._out) + (1 if self._busy else 0)


class MemoryPort:
    """The memory module's bus port: data returns waiting in the output
    buffer."""

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        # the arbiter skips empty ports by testing this queue directly
        self.entries = memory._out
        self.ready_cb = None  # assigned by Bus.add_port

    def peek(self) -> BusOp | None:
        out = self.memory._out
        return out[0] if out else None

    def pop(self) -> BusOp:
        return self.memory._out.popleft()
