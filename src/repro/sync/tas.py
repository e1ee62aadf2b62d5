"""Naive test-and-set lock (extension baseline; not in the paper's runs).

Every acquisition attempt is an atomic test-and-set on the bus -- the
scheme test-and-test-and-set was invented to fix.  Spinners hammer the
bus with read-for-ownership operations for the whole time the lock is
held, stealing the line back and forth, so bus utilization explodes with
even modest contention.  A configurable backoff bounds the op rate (and
the simulation's event count); backoff 0 is the pure pathological
version and should only be simulated on small traces.
"""

from __future__ import annotations

from typing import Callable

from ..machine.buffers import LOCK_RFO
from .base import LockManager, LockState

__all__ = ["TestAndSetLockManager"]


class TestAndSetLockManager(LockManager):
    name = "tas"
    __test__ = False  # pytest: not a test class despite the name

    def __init__(self, backoff_cycles: int = 16) -> None:
        super().__init__()
        if backoff_cycles < 0:
            raise ValueError("backoff_cycles must be >= 0")
        self.backoff_cycles = backoff_cycles
        self._pending_transfer: dict[int, tuple[int]] = {}

    def acquire(self, proc, lock_id, line, time, grant_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)
        st.spinners[proc] = grant_cb
        self._attempt(st, proc, time)

    def _attempt(self, st: LockState, proc: int, time: int) -> None:
        def ts_done(t: int, st=st, proc=proc) -> None:
            st.cached_by = {proc}
            st.last_writer = proc
            if st.owner is None and not st.busy_release:
                grant_cb = st.spinners.pop(proc)
                st.owner = proc
                st.grant_time = t
                pending = self._pending_transfer.pop(st.lock_id, None)
                if pending is not None:
                    (hold,) = pending
                    self.stats.on_release(
                        hold,
                        waiters_left=len(st.spinners),
                        transferred=True,
                        lock_id=st.lock_id,
                    )
                    self.stats.on_handoff(t - st.release_time)
                    self.stats.on_acquire(st.lock_id, via_transfer=True)
                    grant_cb(t, True)
                else:
                    self.stats.on_acquire(st.lock_id, via_transfer=False)
                    grant_cb(t, False)
            elif self.backoff_cycles:
                self.machine.call_at(
                    t + self.backoff_cycles, lambda t2: self._attempt(st, proc, t2)
                )
            else:
                self._attempt(st, proc, t)

        self.machine.issue_lock_op(proc, LOCK_RFO, st.line, ts_done)

    def release(self, proc, lock_id, line, time, done_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)
        if st.owner != proc:
            raise RuntimeError(
                f"proc {proc} releasing lock {lock_id} owned by {st.owner}"
            )
        hold = time - st.grant_time
        st.busy_release = True

        def write_done(t: int, st=st, proc=proc, hold=hold) -> None:
            st.busy_release = False
            st.owner = None
            st.release_time = t
            st.last_writer = proc
            if st.spinners:
                self._pending_transfer[st.lock_id] = (hold,)
            else:
                self.stats.on_release(
                    hold, waiters_left=0, transferred=False, lock_id=st.lock_id
                )
            done_cb(t, False)

        if st.last_writer == proc and st.cached_by == {proc}:
            # Spinner RFOs have not stolen the line: silent write hit.
            self.machine.call_at(time + 1, write_done)
        else:
            # Reclaim the line to perform the release store.
            self.machine.issue_lock_op(proc, LOCK_RFO, line, write_done)

    def on_lock_rfo(self, line: int, proc: int, time: int) -> None:
        for st in self.locks.values():
            if st.line == line:
                st.cached_by = {proc}
                st.last_writer = proc
                return
