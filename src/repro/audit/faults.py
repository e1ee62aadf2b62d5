"""Deliberate protocol corruptions for auditor self-tests.

A sanitizer that never fires is indistinguishable from one that checks
nothing, so every auditor family has at least two registered *faults*:
small monkeypatches applied to a freshly built
:class:`~repro.machine.system.System` that corrupt exactly one protocol
obligation.  The mutation-coverage tests (tests/test_audit_faults.py)
run each fault under a raise-mode auditor and assert the corresponding
checker reports it -- with the right category and context.

Faults are designed for ``mode="raise"``: several of them (the bus
faults especially) leave the machine in a state that is only safe
because the auditor aborts the run at the first violation.

Usage::

    system = System(ts, config, manager, model)
    auditor = SystemAuditor.attach(system, mode="raise")
    inject(system, "skip-invalidation")
    with pytest.raises(AuditError) as exc:
        system.run()
    assert exc.value.violation.category == FAULTS["skip-invalidation"].category
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..machine.buffers import DATA_RETURN, BusOp
from ..machine.memory import _WRITE_KINDS
from .report import ACCOUNTING, BUS, COHERENCE, LOCK

__all__ = [
    "FaultSpec",
    "FAULTS",
    "LOCK_FAULTS",
    "inject",
]


@dataclass(frozen=True)
class FaultSpec:
    """One registered corruption."""

    name: str
    category: str  #: invariant family whose auditor must detect it
    #: check names that may legitimately report this fault (the exact
    #: one depends on which operation first trips over the corruption)
    checks: frozenset
    description: str
    apply: Callable  #: apply(system) -> None; installs the corruption
    #: lock scheme the fault targets; only meaningful for LOCK_FAULTS,
    #: whose corruptions reach into one manager's internals
    scheme: str = "queuing"


def _skip_invalidation(system) -> None:
    """One cache ignores the next invalidation snoop it receives: its
    stale copy survives another processor's RFO/upgrade."""
    victim = system.caches[min(1, len(system.caches) - 1)]
    real = victim.snoop_invalidate
    armed = [True]

    def deaf(line, _real=real):
        if armed:
            armed.clear()
            return (False, False)  # pretend the line was not here
        return _real(line)

    victim.snoop_invalidate = deaf


def _directory_leak(system) -> None:
    """One cache skips its next residency-directory removal: the
    directory keeps listing it for a line it no longer holds."""
    cache = system.caches[0]
    real = cache._dir_remove
    armed = [True]

    def leaky(line, _real=real):
        if armed:
            armed.clear()
            return  # forget to deregister
        _real(line)

    cache._dir_remove = leaky


def _double_grant(system) -> None:
    """The arbiter grants a second operation while the bus is held."""
    bus = system.bus
    real_kick = bus.kick

    def eager(time, _real=real_kick):
        # membership lives in _waiting (reference arbiter) or the
        # _ready bitmask (fast arbiter); either means pending work
        if bus.busy and (bus._waiting or bus._ready):
            bus._grant(time)  # corrupt: ignore the busy flag
        _real(time)

    bus.kick = eager
    # the memory module captured the original bound method at System
    # construction; re-point it so its kicks reach the wrapper too
    system.memory._bus_kick = eager


def _phantom_data_return(system) -> None:
    """Memory emits a duplicate DATA_RETURN for its first read."""
    memory = system.memory
    real = memory._done
    armed = [True]

    def chatty(op, time, _real=real):
        _real(op, time)
        if armed and op.kind not in _WRITE_KINDS:
            armed.clear()
            ghost = BusOp(DATA_RETURN, op.line, op.proc)
            ghost.orig = op
            memory._out.append(ghost)
            if memory.port.ready_cb is not None:
                memory.port.ready_cb()

    memory._done = chatty


def _reorder_queue_waiter(system) -> None:
    """A queuing-lock release pops the back of the queue instead of the
    front (requires a FIFO scheme and >= 2 queued waiters to matter)."""
    mgr = system.locks
    real = mgr.release
    armed = [True]

    def shuffled(proc, lock_id, line, time, done_cb, _real=real):
        st = mgr.locks.get(lock_id)
        if armed and st is not None and len(st.queue) >= 2:
            armed.clear()
            st.queue.reverse()
        _real(proc, lock_id, line, time, done_cb)

    mgr.release = shuffled


def _double_owner(system) -> None:
    """The manager grants a held lock to a second requester."""
    mgr = system.locks
    real = mgr.acquire
    armed = [True]

    def generous(proc, lock_id, line, time, grant_cb, _real=real):
        st = mgr.locks.get(lock_id)
        if armed and st is not None and st.owner is not None and st.owner != proc:
            armed.clear()
            grant_cb(time, True)  # corrupt: lock is already held
            return
        _real(proc, lock_id, line, time, grant_cb)

    mgr.acquire = generous


def _waiter_count_skew(system) -> None:
    """LockStats records one extra waiter at every transfer."""
    stats = system.locks.stats
    real = stats.on_release

    def inflated(hold_cycles, waiters_left, transferred, lock_id=None, _real=real):
        if transferred:
            waiters_left += 1
        _real(hold_cycles, waiters_left, transferred, lock_id)

    stats.on_release = inflated


def _drop_stall_increment(system) -> None:
    """The first processor to finish loses one recorded stall cycle."""
    real = system.on_proc_done
    armed = [True]

    def lossy(proc, t, _real=real):
        if armed:
            armed.clear()
            system.procs[proc].metrics.stall_miss -= 1
        _real(proc, t)

    system.on_proc_done = lossy


def _busy_cycle_skew(system) -> None:
    """The bus busy-cycle counter drifts by one."""
    real = system.on_proc_done
    armed = [True]

    def drifting(proc, t, _real=real):
        if armed:
            armed.clear()
            system.bus.busy_cycles += 1
        _real(proc, t)

    system.on_proc_done = drifting


FAULTS: dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "skip-invalidation",
            COHERENCE,
            frozenset(
                {
                    "stale-copy-after-invalidate",
                    "exclusive-owner",
                    "install-owner",
                    "shared-beside-owner",
                    "holder-stateless",
                }
            ),
            "a cache ignores an invalidation snoop; its stale copy survives",
            _skip_invalidation,
        ),
        FaultSpec(
            "directory-leak",
            COHERENCE,
            frozenset(
                {
                    "holder-stateless",
                    "stale-copy-after-invalidate",
                    "exclusive-owner",
                    "install-owner",
                    "directory-missing-holder",
                }
            ),
            "the residency directory keeps listing a cache that dropped a line",
            _directory_leak,
        ),
        FaultSpec(
            "double-grant",
            BUS,
            frozenset({"overlapping-grant"}),
            "the arbiter grants a second operation while the bus is held",
            _double_grant,
        ),
        FaultSpec(
            "phantom-data-return",
            BUS,
            frozenset({"unmatched-data-return"}),
            "memory emits a duplicate DATA_RETURN for a read",
            _phantom_data_return,
        ),
        FaultSpec(
            "reorder-queue-waiter",
            LOCK,
            frozenset({"fifo-order"}),
            "a queuing-lock release serves the back of the queue first",
            _reorder_queue_waiter,
        ),
        FaultSpec(
            "double-owner",
            LOCK,
            frozenset({"mutual-exclusion"}),
            "the manager grants a held lock to a second requester",
            _double_owner,
        ),
        FaultSpec(
            "waiter-count-skew",
            LOCK,
            frozenset({"stats-waiter-count"}),
            "LockStats records one extra waiter at every transfer",
            _waiter_count_skew,
        ),
        FaultSpec(
            "drop-stall-increment",
            ACCOUNTING,
            frozenset({"cycle-conservation"}),
            "a processor loses one recorded stall cycle",
            _drop_stall_increment,
        ),
        FaultSpec(
            "busy-cycle-skew",
            ACCOUNTING,
            frozenset({"bus-busy-cycles"}),
            "the bus busy-cycle counter drifts by one",
            _busy_cycle_skew,
        ),
    )
}


# -- lock-scheme faults ---------------------------------------------------
#
# A separate registry: these corrupt one *specific* lock manager's
# internals (``spec.scheme`` names it), exercising the queue-node
# hand-off and deadlock diagnostics the lock auditor grew with the
# extension lock zoo.  tests/test_audit_faults.py drives each one on a
# contended traceset under its target scheme.


def _queue_node_skip(system) -> None:
    """An MCS release unlinks the wrong queue node: the head waiter is
    silently dropped and the lock passes to the second in line."""
    mgr = system.locks
    real = mgr.release
    armed = [True]

    def skipping(proc, lock_id, line, time, done_cb, _real=real):
        st = mgr.locks.get(lock_id)
        if armed and st is not None and len(st.queue) >= 2:
            armed.clear()
            st.queue.pop(0)
        _real(proc, lock_id, line, time, done_cb)

    mgr.release = skipping


def _stale_ticket_grant(system) -> None:
    """A ticket release advances now-serving past the next ticket: the
    lock is granted to the holder of a later ticket while the rightful
    next holder keeps spinning."""
    mgr = system.locks
    real = mgr.release
    armed = [True]

    def stale(proc, lock_id, line, time, done_cb, _real=real):
        st = mgr.locks.get(lock_id)
        if armed and st is not None and len(st.queue) >= 2:
            armed.clear()
            st.queue[0], st.queue[1] = st.queue[1], st.queue[0]
        _real(proc, lock_id, line, time, done_cb)

    mgr.release = stale


def _lost_backoff_wakeup(system) -> None:
    """A backed-off retry timer is dropped: the spinner sleeps forever,
    the run deadlocks, and the auditor's deadlock sweep must name the
    stranded waiter."""
    mgr = system.locks
    if not hasattr(mgr, "_schedule_retry"):
        raise RuntimeError(
            "lost-backoff-wakeup needs the exponential-backoff lock scheme"
        )
    real = mgr._schedule_retry
    armed = [True]

    def dropped(st, proc, when, _real=real):
        if armed:
            armed.clear()
            return  # the wakeup is never armed
        _real(st, proc, when)

    mgr._schedule_retry = dropped


LOCK_FAULTS: dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "queue-node-skip",
            LOCK,
            frozenset({"fifo-order", "queue-node-handoff"}),
            "an MCS release drops the head queue node and serves the second",
            _queue_node_skip,
            scheme="mcs",
        ),
        FaultSpec(
            "stale-ticket-grant",
            LOCK,
            frozenset({"fifo-order", "queue-node-handoff"}),
            "a ticket release grants a later ticket than now-serving",
            _stale_ticket_grant,
            scheme="ticket",
        ),
        FaultSpec(
            "lost-backoff-wakeup",
            LOCK,
            frozenset({"waiters-at-exit"}),
            "a backed-off retry is never armed; the waiter sleeps forever",
            _lost_backoff_wakeup,
            scheme="backoff",
        ),
    )
}


def inject(system, name: str) -> FaultSpec:
    """Apply a registered fault (protocol or lock-scheme) to a built
    (not yet run) system."""
    spec = FAULTS.get(name) or LOCK_FAULTS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown fault {name!r}; known: {sorted(FAULTS) + sorted(LOCK_FAULTS)}"
        )
    spec.apply(system)
    return spec
