"""Lock manager interface.

Traces record only the lock/unlock *program points* (spinning is elided,
as in MPTrace); which processor obtains a contended lock, and when, is
decided at simulation time by a :class:`LockManager`.  A manager owns:

* the logical lock state (owner, waiters/spinners);
* the lock line's *caching* state.  Lock words live on dedicated cache
  lines in a dedicated address region, so their coherence behaviour is
  tracked here rather than in the data caches: the manager knows which
  processors hold a cached copy and who last wrote the word, and tells
  the bus-service layer whether a lock-line access is served
  cache-to-cache or from memory;
* the contention statistics of Tables 4/6/8.

Managers drive the machine exclusively through :class:`LockPortAPI`, the
narrow slice of the system they are allowed to touch, which keeps every
scheme implementable (and testable) against a mock machine.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .stats import LockStatsCollector

__all__ = ["LockManager", "LockPortAPI", "LockState"]


class LockPortAPI(Protocol):
    """Machine services available to lock managers."""

    def issue_lock_op(
        self,
        proc: int,
        kind: int,
        line: int,
        on_done: Callable[[int], None],
        front: bool = False,
    ) -> None:
        """Queue a lock-line bus operation in ``proc``'s cache--bus buffer.
        ``on_done(time)`` fires when the operation completes."""
        ...

    def call_at(self, time: int, fn: Callable[[int], None]) -> None:
        """Schedule a plain callback (no bus traffic) at ``time``."""
        ...


class LockState:
    """Per-lock bookkeeping shared by the concrete schemes."""

    __slots__ = (
        "lock_id",
        "line",
        "owner",
        "grant_time",
        "queue",
        "spinners",
        "cached_by",
        "last_writer",
        "release_time",
        "busy_release",
    )

    def __init__(self, lock_id: int, line: int) -> None:
        self.lock_id = lock_id
        self.line = line
        self.owner: int | None = None
        self.grant_time = 0
        #: FIFO of (proc, resume_cb, request_time) -- queuing schemes
        self.queue: list = []
        #: procs spinning in their caches -- T&T&S/TAS schemes
        self.spinners: dict[int, Callable[[int], None]] = {}
        #: procs holding a (clean or dirty) cached copy of the lock line
        self.cached_by: set[int] = set()
        #: proc whose cache holds the line dirty, if any
        self.last_writer: int | None = None
        self.release_time = 0
        self.busy_release = False

    def supplier(self) -> int | None:
        """A processor able to source the lock line cache-to-cache."""
        if self.last_writer is not None:
            return self.last_writer
        if self.cached_by:
            return next(iter(self.cached_by))
        return None


class LockManager:
    """Base class: lock table, stats, machine wiring."""

    #: short identifier used by the registry/CLI ("queuing", "ttas", ...)
    name = "abstract"

    #: True for schemes that serve contended waiters in strict request
    #: order (the auditor checks FIFO hand-off against a shadow queue)
    fifo = False

    def __init__(self) -> None:
        self.locks: dict[int, LockState] = {}
        self.stats = LockStatsCollector()
        self.machine: LockPortAPI | None = None
        #: optional runtime invariant auditor (see repro.audit)
        self.audit = None

    def attach(self, machine: LockPortAPI) -> None:
        self.machine = machine

    def state_of(self, lock_id: int, line: int) -> LockState:
        st = self.locks.get(lock_id)
        if st is None:
            st = self.locks[lock_id] = LockState(lock_id, line)
        elif st.line != line:
            raise ValueError(f"lock {lock_id} used with two lines")
        return st

    def supplier_for_line(self, line: int) -> int | None:
        """Which cache, if any, can source this lock line (bus service
        queries this when arbitrating LOCK_READ/LOCK_RFO/LOCK_MEM ops)."""
        for st in self.locks.values():
            if st.line == line:
                return st.supplier()
        return None

    # -- scheme interface ------------------------------------------------------
    def acquire(
        self, proc: int, lock_id: int, line: int, time: int, grant_cb
    ) -> None:
        """Begin a lock acquisition; ``grant_cb(t, contended)`` fires when
        ``proc`` owns the lock and may resume.  ``contended`` is True when
        the processor had to wait for a held lock (charged to the paper's
        "lock wait" stall cause) and False for plain access overhead
        (charged like any memory access -- see Pverify in Table 3)."""
        raise NotImplementedError

    def release(
        self, proc: int, lock_id: int, line: int, time: int, done_cb
    ) -> None:
        """Begin a lock release; ``done_cb(t, contended)`` fires when the
        releasing processor may resume (``contended`` is always False for
        releases in the shipped schemes)."""
        raise NotImplementedError

    # -- invariants (used by tests) ---------------------------------------------
    def check_invariants(self) -> None:
        for st in self.locks.values():
            if st.owner is not None:
                assert st.owner not in [w[0] for w in st.queue], (
                    f"lock {st.lock_id}: owner also queued"
                )
                assert st.owner not in st.spinners, (
                    f"lock {st.lock_id}: owner also spinning"
                )
