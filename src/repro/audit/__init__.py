"""Runtime invariant auditing for the simulator (a "simulator sanitizer").

The differential harness and the golden fixtures check *outputs*; this
package checks *in-flight protocol state*.  A :class:`SystemAuditor`
attached to a :class:`~repro.machine.system.System` observes every bus
arbitration and grant, every cache install, and every lock acquire /
grant / release, and verifies four invariant families while the
simulation runs:

* :mod:`~repro.audit.coherence` -- MESI legality (one M/E owner, no M
  beside S, snoop/supplier consistency, directory exactness);
* :mod:`~repro.audit.busproto` -- split-transaction bus protocol (no
  overlapping grants, request/data-return pairing, round-robin order
  and fairness);
* :mod:`~repro.audit.locks` -- mutual exclusion, queuing-lock FIFO
  order, LockStats accounting;
* :mod:`~repro.audit.accounting` -- cycle/reference conservation and
  RunResult aggregate consistency.

Auditing is observation-only: results are byte-identical with it on or
off.  Enable it per run with ``MachineConfig(audit=True)`` (CLI
``--audit``), or process-wide with :func:`set_default` / the
``REPRO_AUDIT`` environment variable (``raise`` or ``1`` to fail at the
first violation, ``collect`` to accumulate into an
:class:`~repro.audit.report.AuditReport`).

:mod:`~repro.audit.faults` injects deliberate protocol corruptions so
the test suite can prove each checker actually fires (no vacuous
sanitizers); see docs/audit.md.
"""

from __future__ import annotations

import os

from .core import SystemAuditor
from .report import (
    ACCOUNTING,
    BUS,
    CATEGORIES,
    COHERENCE,
    LOCK,
    AuditError,
    AuditReport,
    Violation,
)

__all__ = [
    "SystemAuditor",
    "AuditError",
    "AuditReport",
    "Violation",
    "CATEGORIES",
    "COHERENCE",
    "BUS",
    "LOCK",
    "ACCOUNTING",
    "set_default",
    "default_mode",
    "maybe_attach",
]

#: process-wide default set by set_default(); None defers to $REPRO_AUDIT
_default: str | None = None


def set_default(mode: str | None) -> None:
    """Set the process-wide default audit mode for new Systems.

    ``"raise"`` or ``"collect"`` audits every subsequently constructed
    :class:`~repro.machine.system.System` (the pytest fixtures use this);
    ``None`` restores opt-in behaviour.
    """
    global _default
    if mode not in (None, "raise", "collect"):
        raise ValueError(f"mode must be None, 'raise' or 'collect', got {mode!r}")
    _default = mode


def default_mode() -> str | None:
    """The audit mode Systems adopt when their config does not ask."""
    if _default is not None:
        return _default
    env = os.environ.get("REPRO_AUDIT", "").strip().lower()
    if env in ("1", "true", "raise"):
        return "raise"
    if env == "collect":
        return "collect"
    return None


def maybe_attach(system, force: bool = False) -> SystemAuditor | None:
    """Attach an auditor to a freshly built system if configured to.

    Called from ``System.__init__``: ``force`` reflects
    ``MachineConfig.audit`` (raise mode), otherwise the process default
    applies.  Returns the auditor, or None when auditing is off.
    """
    mode = "raise" if force else default_mode()
    if mode is None:
        return None
    return SystemAuditor.attach(system, mode)
