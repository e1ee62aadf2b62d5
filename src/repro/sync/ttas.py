"""Test-and-test-and-set locks (§2.4).

"In this scheme the value of the lock variable is read.  If it is
locked, then the processor spins by reading this value until it is free.
Since a copy of the lock variable is in the processor's cache, the
spinning does not consume any bus bandwidth. ... If several processors
are spinning, there will be a burst of traffic as all the processors try
to get the lock after it has been freed."

The burst is modeled mechanistically rather than with a fixed cost:

1. the release store invalidates every spinner's cached copy (one
   invalidation signal, or silently if nobody else caches the line);
2. each spinner's next spin read misses and re-fetches the line over the
   bus (cache-to-cache from the releaser);
3. a spinner that observes the lock free issues a test-and-set -- an
   atomic read-for-ownership that invalidates all other copies;
4. the first test-and-set to complete wins; the others find the lock
   taken and must re-read before settling back into their cached spin.

The ~21--25-cycle hand-off the paper reports, and the extra bus load that
slows even processors not competing for the lock, both emerge from the
serialization of steps 2--4 on the bus.
"""

from __future__ import annotations

from typing import Callable

from ..machine.buffers import LOCK_INVAL, LOCK_READ, LOCK_RFO
from .base import LockManager, LockState

__all__ = ["TestAndTestAndSetLockManager"]


class TestAndTestAndSetLockManager(LockManager):
    name = "ttas"
    __test__ = False  # pytest: not a test class despite the name

    def __init__(self) -> None:
        super().__init__()
        #: procs with a lock-line bus operation in flight, per lock id
        self._inflight: dict[int, set[int]] = {}
        #: (hold_cycles,) recorded at a contended release, consumed when
        #: the winning test-and-set completes
        self._pending_transfer: dict[int, tuple[int]] = {}

    def _infl(self, lock_id: int) -> set[int]:
        return self._inflight.setdefault(lock_id, set())

    # -- acquire ----------------------------------------------------------------
    def acquire(self, proc, lock_id, line, time, grant_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)
        st.spinners[proc] = grant_cb
        if proc in st.cached_by:
            # Spin read hits in the cache: no bus traffic.
            if st.owner is None:
                self._test_and_set(st, proc, time)
            # else: silently spin until the release burst wakes us
        else:
            self._spin_read(st, proc, time)

    def _spin_read(self, st: LockState, proc: int, time: int) -> None:
        """Fetch the lock line so the processor can spin in its cache."""
        infl = self._infl(st.lock_id)
        if proc in infl:
            return
        infl.add(proc)

        def read_done(t: int, st=st, proc=proc) -> None:
            self._infl(st.lock_id).discard(proc)
            st.cached_by.add(proc)
            if proc not in st.spinners:
                return  # granted while the read was in flight (cannot happen today)
            if st.owner is None and not st.busy_release:
                self._test_and_set(st, proc, t)
            # else: value reads as held; spin in cache

        self.machine.issue_lock_op(proc, LOCK_READ, st.line, read_done)

    def _test_and_set(self, st: LockState, proc: int, time: int) -> None:
        """The lock looked free: attempt the atomic test-and-set."""
        infl = self._infl(st.lock_id)
        if proc in infl:
            return
        infl.add(proc)

        def ts_done(t: int, st=st, proc=proc) -> None:
            self._infl(st.lock_id).discard(proc)
            st.cached_by.add(proc)
            st.last_writer = proc  # T&S writes the word regardless of outcome
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
            else:
                # Lost the race: re-read to restore a spin copy.
                self._spin_read(st, proc, t)

        self.machine.issue_lock_op(proc, LOCK_RFO, st.line, ts_done)

    # -- release ----------------------------------------------------------------
    def release(self, proc, lock_id, line, time, done_cb: Callable[[int], None]) -> None:
        st = self.state_of(lock_id, line)
        if st.owner != proc:
            raise RuntimeError(
                f"proc {proc} releasing lock {lock_id} owned by {st.owner}"
            )
        hold = time - st.grant_time
        others_cached = st.cached_by - {proc}
        st.busy_release = True

        def write_done(t: int, st=st, proc=proc, hold=hold) -> None:
            st.busy_release = False
            st.owner = None
            st.release_time = t
            st.last_writer = proc
            if st.spinners:
                self._pending_transfer[st.lock_id] = (hold,)
                # The invalidation knocked out every spinner's copy; each
                # one's next spin read goes to the bus.
                for p in list(st.spinners):
                    self._spin_read(st, p, t)
            else:
                self.stats.on_release(
                    hold, waiters_left=0, transferred=False, lock_id=st.lock_id
                )
            done_cb(t, False)

        if others_cached or st.last_writer != proc:
            # The release store must gain ownership of the line.
            st.cached_by = {proc}
            self.machine.issue_lock_op(proc, LOCK_INVAL, line, write_done)
        else:
            # Line already MODIFIED locally: the store is a silent hit.
            self.machine.call_at(time + 1, write_done)

    # -- snoop hooks (called by the bus service) -------------------------------------
    def on_lock_rfo(self, line: int, proc: int, time: int) -> None:
        """A LOCK_RFO's address phase invalidates all other cached copies
        of the line; affected spinners will re-read."""
        for st in self.locks.values():
            if st.line != line:
                continue
            invalidated = st.cached_by - {proc}
            st.cached_by = {proc}
            st.last_writer = proc
            infl = self._infl(st.lock_id)
            for p in invalidated:
                if p in st.spinners and p not in infl and st.owner is not None:
                    # Spinner's copy vanished while the lock is held: one
                    # re-read restores the cached spin.
                    self._spin_read(st, p, time)
            return

    def on_lock_inval(self, line: int, proc: int, time: int) -> None:
        """An invalidation signal (release store) clears other copies."""
        for st in self.locks.values():
            if st.line == line:
                st.cached_by = {proc}
                st.last_writer = proc
                return
