"""Test-and-set with exponential backoff (extension; not in the paper's
runs).

Anderson's classic fix for the naive test-and-set lock
(:mod:`repro.sync.tas`): after a failed atomic attempt the processor
waits before retrying, and the wait doubles on every consecutive
failure up to a cap, resetting on success.  Contending processors
rapidly spread out, so the bus sees a trickle of read-for-ownership
attempts instead of the constant hammering of pure T&S -- at the price
of hand-off latency (a freed lock sits idle until the next backed-off
retry fires) and of fairness: unlike the queueing schemes there is no
FIFO order, and the longest-waiting processor has the *longest* backoff,
so it is the least likely to win the next race.

Bus-op model: every attempt is an atomic test-and-set -- one
read-for-ownership (``LOCK_RFO``) that steals the lock line.  Between
attempts the processor waits ``delay`` cycles off the bus entirely
(``delay`` starts at ``base_cycles`` per acquisition and doubles per
failure up to ``cap_cycles``).  Releases are a silent write hit when the
releaser's cache still owns the line, one ``LOCK_RFO`` otherwise.
"""

from __future__ import annotations

from typing import Callable

from ..machine.buffers import LOCK_RFO
from .base import LockManager, LockState

__all__ = ["BackoffTestAndSetLockManager"]


class BackoffTestAndSetLockManager(LockManager):
    name = "backoff"
    __test__ = False  # pytest: not a test class despite the name

    def __init__(self, base_cycles: int = 4, cap_cycles: int = 512) -> None:
        super().__init__()
        if base_cycles < 1:
            raise ValueError("base_cycles must be >= 1")
        if cap_cycles < base_cycles:
            raise ValueError("cap_cycles must be >= base_cycles")
        self.base_cycles = base_cycles
        self.cap_cycles = cap_cycles
        self._pending_transfer: dict[int, tuple[int]] = {}
        #: (lock_id, proc) -> delay before the *next* retry
        self._delay: dict[tuple[int, int], int] = {}

    def acquire(self, proc, lock_id, line, time, grant_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)
        st.spinners[proc] = grant_cb
        self._delay[(lock_id, proc)] = self.base_cycles
        self._attempt(st, proc, time)

    def _attempt(self, st: LockState, proc: int, time: int) -> None:
        def ts_done(t: int, st=st, proc=proc) -> None:
            st.cached_by = {proc}
            st.last_writer = proc
            if st.owner is None and not st.busy_release:
                grant_cb = st.spinners.pop(proc)
                self._delay.pop((st.lock_id, proc), None)
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
            else:
                key = (st.lock_id, proc)
                delay = self._delay.get(key, self.base_cycles)
                self._delay[key] = min(delay * 2, self.cap_cycles)
                self._schedule_retry(st, proc, t + delay)

        self.machine.issue_lock_op(proc, LOCK_RFO, st.line, ts_done)

    def _schedule_retry(self, st: LockState, proc: int, when: int) -> None:
        """Arm the next backed-off test-and-set attempt (a separate
        method so the audit mutation tests can corrupt exactly this
        wakeup -- see repro.audit.faults)."""
        self.machine.call_at(when, lambda t: self._attempt(st, proc, t))

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
            # Backed-off spinners have not stolen the line: silent hit.
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
