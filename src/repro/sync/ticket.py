"""Ticket lock (extension; not in the paper's runs).

A fetch-and-increment hands every contender a unique ticket; a
now-serving counter grants the lock in strict ticket (FIFO) order.
There is no test-and-set race, so a release passes the lock to exactly
one predetermined waiter -- but every waiter spins on the *same*
now-serving word, so a release still invalidates all spin copies and
triggers a burst of re-reads, one per waiter, exactly like
test-and-test-and-set's release burst.  The ticket lock therefore sits
between the paper's two schemes: queuing-lock fairness with
T&T&S-shaped release traffic that grows with the number of waiters.

Bus-op model (costs per :class:`~repro.machine.config.MachineConfig`):

* *acquire*: the fetch-and-increment of the next-ticket word is a
  read-for-ownership (``LOCK_RFO``); the line it returns carries the
  now-serving word too, so an uncontended acquire needs no further
  traffic, and a contended one settles into a silent cached spin.
  (The two words are modeled as padded -- an arriving ticket grab does
  not disturb the spinners' now-serving copies.)
* *release*: the now-serving increment invalidates every spinner's
  copy (``LOCK_INVAL``); each waiter then re-reads the line
  (``LOCK_READ``), the new holder's re-read at the front of its buffer.
  Only the waiter whose ticket matches proceeds; the rest re-cache and
  keep spinning, so each release costs one invalidation plus one read
  per waiter on the bus.
"""

from __future__ import annotations

from typing import Callable

from ..machine.buffers import LOCK_INVAL, LOCK_READ, LOCK_RFO
from .base import LockManager, LockState

__all__ = ["TicketLockManager"]


class TicketLockManager(LockManager):
    name = "ticket"
    fifo = True

    def __init__(self) -> None:
        super().__init__()
        #: procs with a lock-line re-read in flight, per lock id
        self._inflight: dict[int, set[int]] = {}
        #: lock_id -> (proc, grant_cb, release_time): a hand-off whose
        #: winning re-read of now-serving has not yet completed
        self._grant_pending: dict[int, tuple] = {}

    def _infl(self, lock_id: int) -> set[int]:
        return self._inflight.setdefault(lock_id, set())

    # -- acquire ----------------------------------------------------------------
    def acquire(self, proc, lock_id, line, time, grant_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)

        def fai_done(t: int, st=st, proc=proc, grant_cb=grant_cb, t_req=time) -> None:
            # The fetch-and-increment returned the line: it carries the
            # now-serving word, so the processor can compare and, if it
            # must wait, spin on its cached copy.
            st.cached_by.add(proc)
            st.last_writer = proc
            if st.owner is None and not st.queue:
                st.owner = proc
                st.grant_time = t
                self.stats.on_acquire(lock_id, via_transfer=False)
                self.stats.on_uncontended_acquire_latency(t - t_req)
                grant_cb(t, False)
            else:
                # Ticket order is arrival order of the serialized
                # fetch-and-increments: strict FIFO.
                st.queue.append((proc, grant_cb, t_req))
                if self.audit is not None:
                    self.audit.on_lock_enqueue(lock_id, proc, t)

        self.machine.issue_lock_op(proc, LOCK_RFO, line, fai_done)

    # -- release ----------------------------------------------------------------
    def release(self, proc, lock_id, line, time, done_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)
        if st.owner != proc:
            raise RuntimeError(
                f"proc {proc} releasing lock {lock_id} owned by {st.owner}"
            )
        hold = time - st.grant_time
        st.release_time = time
        if st.queue:
            nxt, nxt_cb, _t_req = st.queue.pop(0)
            self.stats.on_release(
                hold, waiters_left=len(st.queue), transferred=True, lock_id=lock_id
            )
            # now-serving advances to nxt's ticket at the release
            # instant; nxt resumes once its re-read observes it.
            st.owner = nxt
            self.stats.on_acquire(lock_id, via_transfer=True)
            self._grant_pending[lock_id] = (nxt, nxt_cb, time)
            spinners = [nxt] + [p for p, _cb, _t in st.queue]

            def store_done(t: int, st=st, proc=proc, spinners=spinners) -> None:
                st.cached_by = {proc}
                st.last_writer = proc
                done_cb(t, False)
                # The invalidation knocked out every spinner's copy of
                # now-serving; each one's next spin read hits the bus.
                self._spin_read(st, spinners[0], front=True)
                for p in spinners[1:]:
                    self._spin_read(st, p, front=False)

            self.machine.issue_lock_op(proc, LOCK_INVAL, line, store_done)
        else:
            self.stats.on_release(hold, waiters_left=0, transferred=False, lock_id=lock_id)
            st.owner = None
            if st.cached_by == {proc} and st.last_writer == proc:
                # Line still MODIFIED locally: the increment is silent.
                self.machine.call_at(time + 1, lambda t: done_cb(t, False))
            else:
                st.cached_by = {proc}
                st.last_writer = proc
                self.machine.issue_lock_op(proc, LOCK_INVAL, line, lambda t: done_cb(t, False))

    def _spin_read(self, st: LockState, proc: int, front: bool = False) -> None:
        """Re-fetch the now-serving line after an invalidation."""
        infl = self._infl(st.lock_id)
        if proc in infl:
            return
        infl.add(proc)

        def read_done(t: int, st=st, proc=proc) -> None:
            self._infl(st.lock_id).discard(proc)
            st.cached_by.add(proc)
            pending = self._grant_pending.get(st.lock_id)
            if pending is not None and pending[0] == proc:
                _nxt, grant_cb, t_rel = self._grant_pending.pop(st.lock_id)
                st.grant_time = t
                self.stats.on_handoff(t - t_rel)
                grant_cb(t, True)
            # else: the ticket does not match yet; spin in cache

        self.machine.issue_lock_op(proc, LOCK_READ, st.line, read_done, front=front)
