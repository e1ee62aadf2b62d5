"""Craig--Landin--Hagersten queue lock (extension; not in the paper's
runs).

Like MCS, CLH builds an implicit FIFO queue with one atomic swap on a
tail pointer; unlike MCS, each waiter spins on its *predecessor's* node
rather than its own.  On a cache-coherent bus the first read of the
predecessor's node migrates it into the spinner's cache, spinning is
then silent, and the predecessor's release store invalidates that copy,
so the hand-off costs one invalidation plus one cache-to-cache re-read.

Bus-op model (costs per :class:`~repro.machine.config.MachineConfig`):

* *acquire*: the atomic swap on the tail (``LOCK_RFO``) fixes the
  queue position, then the processor reads its predecessor's node
  (``LOCK_READ``).  Uncontended, the read observes the lock free and the
  acquisition completes; contended, the copy settles into the cache and
  the processor spins silently.
* *contended release*: the store to the releaser's own node must first
  invalidate the successor's cached copy (``LOCK_INVAL``); the
  successor's next spin read then misses and re-fetches the node
  cache-to-cache (``LOCK_XFER``, at the front of its buffer).  CLH
  hand-off therefore costs one address cycle more than MCS's single
  transfer.
* *uncontended release*: the store hits the releaser's own node -- a
  silent write when the line is still exclusively cached, an
  invalidation otherwise.
"""

from __future__ import annotations

from typing import Callable

from ..machine.buffers import LOCK_INVAL, LOCK_READ, LOCK_RFO, LOCK_XFER
from .base import LockManager

__all__ = ["CLHLockManager"]


class CLHLockManager(LockManager):
    name = "clh"
    fifo = True

    def acquire(self, proc, lock_id, line, time, grant_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)

        def swap_done(t: int, st=st, proc=proc, grant_cb=grant_cb, t_req=time) -> None:
            st.cached_by = {proc}
            st.last_writer = proc
            if st.owner is None and not st.queue:
                # Queue position fixed by the swap; ownership is ours,
                # but the acquisition completes only once the read of
                # the predecessor's node observes it released.  Declare
                # the early claim so the auditor can distinguish waiters
                # that queue behind us during the read from a queue jump.
                st.owner = proc
                if self.audit is not None:
                    self.audit.on_lock_claim(lock_id, proc, t)

                def read_done(t2: int, st=st, proc=proc, grant_cb=grant_cb, t_req=t_req) -> None:
                    st.cached_by.add(proc)
                    st.grant_time = t2
                    self.stats.on_acquire(st.lock_id, via_transfer=False)
                    self.stats.on_uncontended_acquire_latency(t2 - t_req)
                    grant_cb(t2, False)

                self.machine.issue_lock_op(proc, LOCK_READ, st.line, read_done)
            else:
                # Spin (silently, once cached) on the predecessor's node.
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
            st.owner = nxt
            self.stats.on_acquire(lock_id, via_transfer=True)

            def store_done(t: int, st=st, proc=proc, nxt=nxt, nxt_cb=nxt_cb, t_rel=time) -> None:
                # The release store owns the node line exclusively now.
                st.cached_by = {proc}
                st.last_writer = proc
                done_cb(t, False)

                def reread_done(t2: int, st=st, nxt=nxt, nxt_cb=nxt_cb, t_rel=t_rel) -> None:
                    st.cached_by.add(nxt)
                    st.grant_time = t2
                    self.stats.on_handoff(t2 - t_rel)
                    nxt_cb(t2, True)

                # The successor's spin read misses and re-fetches the
                # released node from the releaser's cache.
                self.machine.issue_lock_op(nxt, LOCK_XFER, st.line, reread_done, front=True)

            # Invalidate the successor's cached copy of our node.
            self.machine.issue_lock_op(proc, LOCK_INVAL, st.line, store_done)
        else:
            self.stats.on_release(hold, waiters_left=0, transferred=False, lock_id=lock_id)
            st.owner = None
            if st.cached_by == {proc} and st.last_writer == proc:
                # Node line still MODIFIED locally: silent write hit.
                self.machine.call_at(time + 1, lambda t: done_cb(t, False))
            else:
                st.cached_by = {proc}
                st.last_writer = proc
                self.machine.issue_lock_op(proc, LOCK_INVAL, st.line, lambda t: done_cb(t, False))
