"""Split-transaction bus with round-robin arbitration (§2.2).

The bus serializes the address/data phases of all coherence traffic.  A
*split transaction* occurs on memory requests: the bus is held only for
the address phase (one cycle); while the memory module works, the bus is
free, and the data return is a separate arbitration (memory is a bus
requester like any processor).  Everything else (cache-to-cache
transfers, write-backs, invalidations) holds the bus for its full
duration.

The arbiter scans ports round-robin starting after the last grantee.  A
port whose head operation is not *issuable* (it needs a memory-input
buffer slot and none is free) is skipped -- the transaction waits in its
cache--bus buffer without holding the bus.

Two interchangeable arbiter implementations live here, selected by the
``fast_path`` constructor flag (wired to ``MachineConfig.bus_fast_path``,
CLI ``--no-bus-fast-path``):

* the **reference arbiter** (:meth:`Bus._grant`) keeps the waiting
  ports in a set, sorts it per arbitration, and rotates the sorted order
  to start after the last grantee; each grant with a completion callback
  allocates a fresh fire closure;
* the **fast arbiter** (:meth:`Bus._grant_fast`) keeps the same waiting
  membership as an integer bitmask and *rotates the mask* instead of
  sorting: ``rot = (mask >> rr) | (mask << (n - rr))`` maps port ``p``
  to bit ``(p - rr) mod n``, so peeling lowest set bits visits ports in
  exactly the ascending-wraparound-from-``rr`` order of the reference
  scan (the map ``p -> (p - rr) mod n`` is strictly increasing along
  that order, and every member port appears).  Grant, completion fire
  and release are fused into one preallocated bound-method engine event
  (:meth:`Bus._fire`) with the completion carried in a single
  ``_pending_done`` slot -- legal because the bus holds at most one
  transaction, so between a grant and its fire no other grant can
  overwrite the slot.

Both paths are differentially verified byte-identical on every suite
cell (``python -m repro diff-verify``), and the busproto auditor's
round-robin/fairness/overlap checkers run unchanged against either.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Callable, Protocol

from .buffers import DATA_RETURN, LOCK_INVAL, LOCK_XFER, OP_NAMES, WRITEBACK, BusOp
from .engine import Engine

__all__ = ["Bus", "BusPort", "BusService"]

#: bus operation kinds are the small ints 0..len(OP_NAMES)-1, so per-kind
#: grant counters live in a flat list indexed by kind (the old dict paid a
#: hash + ``dict.get`` on every grant)
_N_OP_KINDS = len(OP_NAMES)

#: kinds for which BusService.can_issue is statically True with no side
#: effects (they need nothing but the bus itself -- see System.can_issue);
#: the fast arbiter skips the call for them.  A bitmask so the test is a
#: single shift-and-AND on the small-int kind.
_ALWAYS_ISSUABLE = (1 << DATA_RETURN) | (1 << LOCK_INVAL) | (1 << LOCK_XFER)


class BusPort(Protocol):
    """Anything the arbiter can draw operations from.

    ``entries`` is the port's underlying deque; the arbiter tests its
    truthiness directly to skip empty ports without a method call (the
    scan is the hottest loop outside the trace interpreter).  The
    reference arbiter draws through ``peek`` and ``pop``.  The fast
    arbiter reads the head entry itself and calls ``peek`` only when
    that head is lazily cancelled (``peek`` drops dead head entries);
    it pops with ``entries.popleft()``, calling ``pop`` only for a
    ``WRITEBACK``, whose count the port keeps.

    ``ready_cb`` is assigned by :meth:`Bus.add_port`; the port MUST call
    it (no arguments) on every enqueue.  It marks the port as possibly
    ready, so the arbiter only ever scans ports that have signalled work
    since it last saw them empty -- the scan set shrinks from "all
    ports" to "ports with traffic in flight".

    ``entries`` must be a *stable reference* (the same queue object for
    the port's whole lifetime): the fast arbiter caches it in a flat
    per-port table at :meth:`Bus.add_port` time.
    """

    entries: object  # sized/truthy queue of pending operations
    ready_cb: Callable[[], None] | None

    def peek(self) -> BusOp | None: ...

    def pop(self) -> BusOp: ...


class BusService(Protocol):
    """The system-side executor of granted operations."""

    def can_issue(self, op: BusOp, time: int) -> bool: ...

    def execute(self, op: BusOp, time: int) -> tuple[int, Callable | None]:
        """Perform the operation's snoop/state effects; return ``(hold,
        done)``: the number of cycles the bus is held, and an optional
        completion callback the bus invokes at ``time + hold``
        immediately before releasing.  Returning the callback (instead
        of the service scheduling it) lets the bus fire completion and
        release as ONE engine event; because the two were always
        scheduled back-to-back for the same cycle with nothing in
        between, the merged dispatch order is identical."""
        ...


class Bus:
    """Round-robin arbitrated bus."""

    def __init__(
        self, engine: Engine, service: BusService, fast_path: bool = True
    ) -> None:
        self.engine = engine
        self.service = service
        self.ports: list[BusPort] = []
        self.busy = False
        self._rr = 0
        self.fast_path = fast_path
        # reference arbiter: indices of ports that may have pending work
        self._waiting: set[int] = set()
        # fast arbiter: the same membership as a bitmask (bit i = port i)
        self._ready = 0
        self._full_mask = 0
        self._n_ports = 0
        # fast arbiter: per-port (entries, peek, pop) tables, parallel to
        # ``ports`` -- the scan indexes flat lists instead of chasing
        # object attributes.  The service's can_issue/execute are looked
        # up per call on purpose: tests and tools shadow them on the
        # system instance after construction (e.g. to log grant order).
        self._port_entries: list = []
        self._port_peek: list = []
        self._port_pop: list = []
        self._engine_at = engine.at
        # fast arbiter: the granted transaction's completion, fired by
        # the preallocated _fire event (single slot: one transaction on
        # the bus at a time)
        self._pending_done: Callable[[int], None] | None = None
        self._fire_cb = self._fire
        # inline engine scheduling (bucket append without the ``at``
        # call) is only exact against the production Engine's internals
        self._sched_inline = fast_path and type(engine) is Engine
        if fast_path:
            # shadow the bound arbiter so kick/_fire dispatch without a
            # per-call mode test
            self._grant = self._grant_fast
        # statistics
        self.busy_cycles = 0
        self._op_counts = [0] * _N_OP_KINDS
        self.grants = 0
        #: optional observer called as observer(op, grant_time, hold)
        #: after every grant (see repro.machine.buslog)
        self.observer = None
        #: optional runtime invariant auditor (see repro.audit)
        self.audit = None

    def add_port(self, port: BusPort) -> int:
        """Register a port; returns its index.

        The port's ``ready_cb`` is bound to mark it in the arbiter's
        waiting set (reference) or bitmask (fast).  Membership is a
        superset of "non-empty": stale entries are discarded when a scan
        finds the port empty.
        """
        self.ports.append(port)
        idx = len(self.ports) - 1
        self._n_ports = len(self.ports)
        self._full_mask = (1 << len(self.ports)) - 1
        self._port_entries.append(port.entries)
        self._port_peek.append(port.peek)
        self._port_pop.append(port.pop)
        if self.fast_path:
            bit = 1 << idx

            def ready(bus=self, bit=bit):
                bus._ready |= bit

            port.ready_cb = ready
            if getattr(port, "entries", None):
                self._ready |= bit
        else:
            waiting = self._waiting
            port.ready_cb = lambda _add=waiting.add, _i=idx: _add(_i)
            if getattr(port, "entries", None):
                waiting.add(idx)
        return idx

    # -- operation ------------------------------------------------------------
    def kick(self, time: int) -> None:
        """Re-arbitrate if idle.  Call whenever a port gains a new head
        operation or an issuability condition may have changed."""
        if not self.busy:
            self._grant(time)

    # -- fast arbiter ---------------------------------------------------------
    def _grant_fast(self, time: int) -> None:
        mask = self._ready
        if not mask:
            return
        n = self._n_ports
        # the service's entry points are looked up per call on purpose:
        # tests and tools shadow them on the system instance after
        # construction (e.g. to log grant order)
        service = self.service
        entries_tab = self._port_entries
        audit = self.audit
        if audit is not None:
            audit.on_arbitrate(time)
        rr = self._rr
        # Rotate the membership mask so bit k is port (rr + k) mod n,
        # then peel lowest set bits: ports are visited in the same
        # ascending-from-_rr wrap-around order as a full scan, without
        # sorting (skipped non-member ports are provably empty).
        rot = (mask >> rr) | ((mask << (n - rr)) & self._full_mask)
        while rot:
            idx = rr + ((rot & -rot).bit_length() - 1)
            if idx >= n:
                idx -= n
            entries = entries_tab[idx]
            if entries:
                op = entries[0]
                if op.cancelled:  # let the port drop its dead head entries
                    op = self._port_peek[idx]()
            else:
                op = None
            if op is None:  # empty, or all entries lazily-cancelled
                self._ready &= ~(1 << idx)
            elif (_ALWAYS_ISSUABLE >> op.kind) & 1 or service.can_issue(op, time):
                if op.kind == WRITEBACK:
                    self._port_pop[idx]()  # the port counts its write-backs
                else:
                    entries.popleft()
                if not entries:
                    self._ready &= ~(1 << idx)
                self._rr = idx + 1 if idx + 1 < n else 0
                self.busy = True
                if audit is not None:
                    audit.on_grant_pre(op, time, idx)
                hold, done = service.execute(op, time)
                if hold < 1:
                    raise ValueError(
                        f"bus op {op} reported hold of {hold} cycles"
                    )
                self.busy_cycles += hold
                self.grants += 1
                self._op_counts[op.kind] += 1
                if self.observer is not None:
                    self.observer(op, time, hold)
                if audit is not None:
                    audit.on_grant_post(op, time, hold, idx)
                # fuse completion + release into ONE preallocated event
                self._pending_done = done
                t2 = time + hold
                eng = self.engine
                if self._sched_inline and type(t2) is int and t2 >= eng.now:
                    # inlined Engine.at (the guard re-proves its checks)
                    buckets = eng._buckets
                    b = buckets.get(t2)
                    if b is None:
                        buckets[t2] = [self._fire_cb]
                        _heappush(eng._times, t2)
                    else:
                        b.append(self._fire_cb)
                    eng._pending += 1
                else:
                    self._engine_at(t2, self._fire_cb)
                return
            else:
                if audit is not None:
                    audit.on_skip(idx, op, time)
            rot &= rot - 1
        # nothing issuable: bus idles until the next kick

    def _fire(self, t: int) -> None:
        """The granted transaction's bus tenancy ended: fire its
        completion (with the bus still held, exactly as the reference
        path does) and release in the same engine event."""
        done = self._pending_done
        if done is not None:
            self._pending_done = None
            done(t)
        self.busy = False
        self._grant(t)

    # -- reference arbiter ----------------------------------------------------
    def _grant(self, time: int) -> None:
        waiting = self._waiting
        if not waiting:
            return
        ports = self.ports
        n = len(ports)
        service = self.service
        audit = self.audit
        if audit is not None:
            audit.on_arbitrate(time)
        # Scan only possibly-ready ports, in the same ascending-from-_rr
        # wrap-around order as a full scan (so grant decisions are
        # identical: skipped ports are provably empty).
        if len(waiting) == 1:
            order = tuple(waiting)
        else:
            order = sorted(waiting)
            rr = self._rr
            if order[0] < rr <= order[-1]:
                for s, x in enumerate(order):
                    if x >= rr:
                        order = order[s:] + order[:s]
                        break
        for idx in order:
            port = ports[idx]
            if not port.entries:
                waiting.discard(idx)
                continue
            op = port.peek()
            if op is None:  # all entries were lazily-dropped cancellations
                waiting.discard(idx)
                continue
            if not service.can_issue(op, time):
                if audit is not None:
                    audit.on_skip(idx, op, time)
                continue
            port.pop()
            if not port.entries:
                waiting.discard(idx)
            self._rr = idx + 1 if idx + 1 < n else 0
            self.busy = True
            if audit is not None:
                audit.on_grant_pre(op, time, idx)
            hold, done = service.execute(op, time)
            if hold < 1:
                raise ValueError(f"bus op {op} reported hold of {hold} cycles")
            self.busy_cycles += hold
            self.grants += 1
            self._op_counts[op.kind] += 1
            if self.observer is not None:
                self.observer(op, time, hold)
            if audit is not None:
                audit.on_grant_post(op, time, hold, idx)
            if done is None:
                self.engine.at(time + hold, self._release)
            else:

                def _fire(t, done=done):
                    done(t)
                    self._release(t)

                self.engine.at(time + hold, _fire)
            return
        # nothing issuable: bus idles until the next kick

    def _release(self, time: int) -> None:
        self.busy = False
        self._grant(time)

    # -- statistics -----------------------------------------------------------
    @property
    def op_counts(self) -> dict[int, int]:
        """Per-kind grant counts, as the dict the results serialize
        (kinds that were never granted are absent, matching the old
        dict-backed counter)."""
        return {k: c for k, c in enumerate(self._op_counts) if c}

    def utilization(self, total_cycles: int) -> float:
        return self.busy_cycles / total_cycles if total_cycles else 0.0
