"""Exact Graunke--Thakkar queuing lock.

The paper's simulator approximates queuing locks (see
:mod:`repro.sync.queuing`) and notes: "In an exact queuing lock
implementation, there would be an additional memory access in the phase
when a processor gets on the queue for the lock.  In addition, in the
Illinois protocol that we are using, there would be an additional memory
access after the release of the lock if a processor is waiting and there
would be no cache to cache transfer. ... We are currently modifying our
simulator to verify this assumption."

This manager is that verification: it restores both differences --

* the acquire phase performs *two* memory accesses (the atomic exchange
  that enqueues, plus the first read of the processor's private spin
  location);
* a contended release hands off with a *memory* access (the waiter's
  spin-location read misses to memory after the releaser's store
  invalidates it) instead of a cache-to-cache transfer.

The exact-queuing ablation benchmark compares the two and checks the
paper's "no impact on validity" claim.
"""

from __future__ import annotations

from typing import Callable

from ..machine.buffers import LOCK_MEM
from .base import LockManager

__all__ = ["ExactQueuingLockManager"]


class ExactQueuingLockManager(LockManager):
    name = "exact-queuing"
    fifo = True

    def acquire(self, proc, lock_id, line, time, grant_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)

        def spin_read_done(t: int, st=st, proc=proc, grant_cb=grant_cb, t_req=time) -> None:
            st.cached_by.add(proc)
            if st.owner is None and not st.queue:
                st.owner = proc
                st.grant_time = t
                self.stats.on_acquire(lock_id, via_transfer=False)
                self.stats.on_uncontended_acquire_latency(t - t_req)
                grant_cb(t, False)
            else:
                st.queue.append((proc, grant_cb, t_req))
                if self.audit is not None:
                    self.audit.on_lock_enqueue(lock_id, proc, t)

        def exchange_done(t: int) -> None:
            # Second access: first read of the private spin location.
            self.machine.issue_lock_op(proc, LOCK_MEM, line, spin_read_done)

        # First access: the atomic exchange that appends to the queue.
        self.machine.issue_lock_op(proc, LOCK_MEM, line, exchange_done)

    def release(self, proc, lock_id, line, time, done_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)
        if st.owner != proc:
            raise RuntimeError(
                f"proc {proc} releasing lock {lock_id} owned by {st.owner}"
            )
        hold = time - st.grant_time
        transferred = bool(st.queue)
        if transferred:
            nxt, nxt_cb, _t_req = st.queue.pop(0)
            self.stats.on_release(
                hold, waiters_left=len(st.queue), transferred=True, lock_id=lock_id
            )
            st.owner = nxt
            self.stats.on_acquire(lock_id, via_transfer=True)

            def handoff_done(t: int, st=st, nxt=nxt, nxt_cb=nxt_cb, t_rel=time) -> None:
                st.cached_by.add(nxt)
                st.grant_time = t
                self.stats.on_handoff(t - t_rel)
                nxt_cb(t, True)

            # No cache-to-cache transfer under Illinois: the waiter's
            # re-read of its invalidated spin location goes to memory.
            self.machine.issue_lock_op(nxt, LOCK_MEM, st.line, handoff_done, front=True)
        else:
            self.stats.on_release(hold, waiters_left=0, transferred=False, lock_id=lock_id)
            st.owner = None
        st.release_time = time
        st.last_writer = proc

        self.machine.issue_lock_op(proc, LOCK_MEM, line, lambda t: done_cb(t, False))
