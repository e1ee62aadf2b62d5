"""The paper's approximation of queuing locks (§2.4).

Graunke & Thakkar queuing locks give every waiter a distinct memory
location to spin on, so a release hands the lock to exactly one waiting
processor with no contention burst.  The paper simulates a slightly
simplified scheme, which we reproduce exactly:

* *acquire*: "a memory access is made.  When the result of that access
  returns to the processor, it sees whether or not it has the lock.  If
  so, it enters the critical section.  Otherwise it stalls."
* *release*: "the processor releasing the lock does a memory access.
  Also, a cache to cache transfer is done if another processor is
  waiting for the lock" -- the transfer delivers the hand-off flag to the
  next waiter, which then resumes.

The approximation omits two bus transactions of an exact implementation
(an extra access while enqueueing, and a memory access instead of the
cache-to-cache transfer after a contended release); the exact variant in
:mod:`repro.sync.exact_queuing` restores them so the paper's "we believe
the two missing bus transactions have no impact" claim can be checked.
"""

from __future__ import annotations

from typing import Callable

from ..machine.buffers import LOCK_MEM, LOCK_XFER
from .base import LockManager

__all__ = ["QueuingLockManager"]


class QueuingLockManager(LockManager):
    name = "queuing"
    fifo = True

    #: bus-op kind used for the enqueue/acquire memory access
    _ACQ_KIND = LOCK_MEM

    def acquire(self, proc, lock_id, line, time, grant_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)

        def access_done(t: int, st=st, proc=proc, grant_cb=grant_cb, t_req=time) -> None:
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

        self.machine.issue_lock_op(proc, self._ACQ_KIND, line, access_done)

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
            # Ownership passes at the release instant; the waiter resumes
            # (and its hold clock starts) once the cache-to-cache
            # hand-off of its flag completes.
            st.owner = nxt
            self.stats.on_acquire(lock_id, via_transfer=True)
            self._handoff(st, nxt, nxt_cb, time)
        else:
            self.stats.on_release(hold, waiters_left=0, transferred=False, lock_id=lock_id)
            st.owner = None
        st.release_time = time
        st.last_writer = proc  # the release store dirties the lock line

        # The releasing processor's own memory access for the release
        # (plain access overhead, not contention).
        self.machine.issue_lock_op(proc, LOCK_MEM, line, lambda t: done_cb(t, False))

    def _handoff(self, st, nxt: int, nxt_cb: Callable[[int], None], time: int) -> None:
        """Deliver the lock to ``nxt`` via a cache-to-cache transfer."""

        def xfer_done(t: int, st=st, nxt=nxt, nxt_cb=nxt_cb, t_rel=time) -> None:
            st.cached_by.add(nxt)
            st.grant_time = t
            self.stats.on_handoff(t - t_rel)
            nxt_cb(t, True)

        self.machine.issue_lock_op(nxt, LOCK_XFER, st.line, xfer_done, front=True)
