"""Mellor-Crummey--Scott list-based queue lock (extension; not in the
paper's runs).

Each contender atomically swaps itself onto the tail of a linked queue
of waiter nodes and then spins on a flag in its *own* node, so waiting
generates no bus traffic at all; a release writes the successor's node,
handing the lock over in strict FIFO order with a single cache-to-cache
transfer.  MCS is the natural end point of the queuing-lock family the
paper approximates (§2.4): the Graunke--Thakkar lock gives each waiter a
distinct spin location too, but MCS reaches it with one atomic swap
instead of an array slot computation.

Bus-op model (costs per :class:`~repro.machine.config.MachineConfig`):

* *acquire*: one atomic swap on the queue tail -- a read-for-ownership
  (``LOCK_RFO``).  Uncontended, that is the whole cost; contended, the
  swap links the node and the processor spins locally, silently.
* *contended release*: the store that sets the successor's flag
  invalidates the node line the successor spins on and delivers it
  cache-to-cache (``LOCK_XFER``, issued at the front of the successor's
  buffer -- the hand-off is the oldest obligation it has).  The releaser
  itself retires the store into its write buffer and resumes one cycle
  later.
* *uncontended release*: a compare-and-swap must verify the tail still
  points at the releaser before clearing it -- a second ``LOCK_RFO``
  (address-only when the releaser's cache still owns the line).
"""

from __future__ import annotations

from typing import Callable

from ..machine.buffers import LOCK_RFO, LOCK_XFER
from .base import LockManager

__all__ = ["MCSLockManager"]


class MCSLockManager(LockManager):
    name = "mcs"
    fifo = True

    def acquire(self, proc, lock_id, line, time, grant_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)

        def swap_done(t: int, st=st, proc=proc, grant_cb=grant_cb, t_req=time) -> None:
            # The swap gained exclusive ownership of the tail line.
            st.cached_by = {proc}
            st.last_writer = proc
            if st.owner is None and not st.queue:
                st.owner = proc
                st.grant_time = t
                self.stats.on_acquire(lock_id, via_transfer=False)
                self.stats.on_uncontended_acquire_latency(t - t_req)
                grant_cb(t, False)
            else:
                # Linked behind the predecessor: spin on our own node,
                # in our own cache, with no further bus traffic.
                st.queue.append((proc, grant_cb, t_req))
                if self.audit is not None:
                    self.audit.on_lock_enqueue(lock_id, proc, t)

        self.machine.issue_lock_op(proc, LOCK_RFO, line, swap_done)

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
            # The queue node is handed to the successor at the release
            # instant; the successor resumes when the store to its node
            # reaches its cache.
            st.owner = nxt
            st.last_writer = proc
            self.stats.on_acquire(lock_id, via_transfer=True)

            def xfer_done(t: int, st=st, nxt=nxt, nxt_cb=nxt_cb, t_rel=time) -> None:
                st.cached_by.add(nxt)
                st.grant_time = t
                self.stats.on_handoff(t - t_rel)
                nxt_cb(t, True)

            self.machine.issue_lock_op(nxt, LOCK_XFER, st.line, xfer_done, front=True)
            # The releaser's store retires into its write buffer.
            self.machine.call_at(time + 1, lambda t: done_cb(t, False))
        else:
            self.stats.on_release(hold, waiters_left=0, transferred=False, lock_id=lock_id)
            st.owner = None
            st.last_writer = proc
            # Compare-and-swap the tail back to nil.
            self.machine.issue_lock_op(proc, LOCK_RFO, line, lambda t: done_cb(t, False))
