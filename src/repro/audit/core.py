"""The system auditor: attachment, event dispatch, finalization.

One :class:`SystemAuditor` watches one :class:`~repro.machine.system.
System`.  :meth:`SystemAuditor.attach` plants it on the hook points the
machine exposes (``system.audit``, ``bus.audit``, ``cache.audit``,
``lock_manager.audit``) and wraps the lock grant callbacks at the
system's acquire/release funnel.  Every hook is **observation-only**:
the auditor never mutates machine state, schedules events, or changes a
decision, so an audited run's :class:`~repro.machine.metrics.RunResult`
is byte-identical to an unaudited one (pinned by tests/test_audit_grid
and the audit property suite).

``mode="raise"`` raises :class:`~repro.audit.report.AuditError` at the
first violation, with the faulty cycle/processor/line in the message --
the sanitizer behaviour.  ``mode="collect"`` accumulates everything
into :attr:`report` for harnesses that want to compare or count.
"""

from __future__ import annotations

from .accounting import AccountingAuditor
from .busproto import BusAuditor
from .coherence import CoherenceAuditor
from .locks import LockAuditor
from .report import AuditError, AuditReport, Violation

__all__ = ["SystemAuditor"]


class SystemAuditor:
    """Runtime invariant auditor for one simulation (single use)."""

    def __init__(self, system, mode: str = "raise") -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        self.system = system
        self.mode = mode
        self.report = AuditReport()
        self.coherence = CoherenceAuditor(self)
        self.busproto = BusAuditor(self)
        self.locks = LockAuditor(self)
        self.accounting = AccountingAuditor(self)
        self.finalized = False

    @classmethod
    def attach(cls, system, mode: str = "raise") -> "SystemAuditor":
        """Create an auditor and plant it on ``system``'s hook points."""
        if system.audit is not None:
            raise RuntimeError("system already has an auditor attached")
        auditor = cls(system, mode)
        system.audit = auditor
        system.bus.audit = auditor
        system.locks.audit = auditor
        for cache in system.caches:
            cache.audit = auditor
        return auditor

    # -- violation sink --------------------------------------------------
    def violation(self, v: Violation) -> None:
        self.report.add(v)
        if self.mode == "raise":
            raise AuditError(v)

    # -- bus hooks (Bus._grant) ------------------------------------------
    def on_arbitrate(self, time: int) -> None:
        self.busproto.on_arbitrate(time)

    def on_skip(self, idx: int, op, time: int) -> None:
        self.busproto.on_skip(idx, op, time)

    def on_grant_pre(self, op, time: int, idx: int) -> None:
        self.busproto.on_grant_pre(op, time, idx)
        self.coherence.on_grant_pre(op, time)

    def on_grant_post(self, op, time: int, hold: int, idx: int) -> None:
        self.busproto.on_grant_post(op, time, hold, idx)
        self.coherence.on_grant_post(op, time)

    # -- cache hook (Cache.install) --------------------------------------
    def on_install(self, proc: int, line: int, state: int) -> None:
        self.coherence.on_install(proc, line, state)

    # -- lock funnel hooks (System.lock_acquire/lock_release) ------------
    def wrap_acquire(self, proc: int, lock_id: int, line: int, time: int, cb):
        self.locks.on_acquire(proc, lock_id, time)

        def granted(t: int, contended: bool, _cb=cb) -> None:
            self.locks.on_grant(proc, lock_id, t, contended)
            _cb(t, contended)

        return granted

    def on_lock_release(self, proc: int, lock_id: int, line: int, time: int) -> None:
        self.locks.on_release(proc, lock_id, line, time)

    # -- manager hooks (queuing schemes) ---------------------------------
    def on_lock_enqueue(self, lock_id: int, proc: int, time: int) -> None:
        self.locks.on_enqueue(lock_id, proc, time)

    def on_lock_claim(self, lock_id: int, proc: int, time: int) -> None:
        self.locks.on_claim(lock_id, proc, time)

    # -- deadlock (System.run, before its RuntimeError) ------------------
    def on_deadlock(self, stuck) -> None:
        self.locks.on_deadlock(stuck)

    # -- end of run ------------------------------------------------------
    def finalize(self, result) -> AuditReport:
        """Run the end-of-run sweeps.  Called by :meth:`System.run` after
        the RunResult is collected (so the result is never perturbed)."""
        if self.finalized:
            return self.report
        self.finalized = True
        self.busproto.finalize()
        self.coherence.finalize()
        self.locks.finalize()
        self.accounting.finalize(result)
        return self.report
