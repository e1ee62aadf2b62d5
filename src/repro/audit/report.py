"""Violation records and the audit report.

A :class:`Violation` is one observed breach of a simulator invariant,
with enough structured context (cycle, processor, line, lock id,
expected vs. observed) to localize the bug without re-running.  An
:class:`AuditReport` accumulates violations plus a per-category count of
checks actually executed -- the counts exist so tests can prove the
auditors are not vacuous (a sanitizer that ran zero checks also reports
zero violations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "AuditError",
    "AuditReport",
    "Violation",
    "COHERENCE",
    "BUS",
    "LOCK",
    "ACCOUNTING",
    "CATEGORIES",
]

#: invariant families (§3 of the paper: MESI snooping, split-transaction
#: bus arbitration, lock semantics, stall-cycle accounting)
COHERENCE = "coherence"
BUS = "bus"
LOCK = "lock"
ACCOUNTING = "accounting"
CATEGORIES = (COHERENCE, BUS, LOCK, ACCOUNTING)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with structured context."""

    category: str  #: one of :data:`CATEGORIES`
    check: str  #: machine-readable check name ("exclusive-owner", ...)
    message: str  #: human-readable description
    cycle: int = -1  #: global cycle at detection (-1: end-of-run check)
    proc: int = -1  #: processor involved, if any
    line: int = -1  #: cache line involved, if any
    lock_id: int = -1  #: lock involved, if any
    expected: object = None
    observed: object = None

    def __str__(self) -> str:
        ctx = []
        if self.cycle >= 0:
            ctx.append(f"cycle {self.cycle}")
        if self.proc >= 0:
            ctx.append(f"proc {self.proc}")
        if self.line >= 0:
            ctx.append(f"line {self.line:#x}")
        if self.lock_id >= 0:
            ctx.append(f"lock {self.lock_id}")
        where = f" [{', '.join(ctx)}]" if ctx else ""
        detail = ""
        if self.expected is not None or self.observed is not None:
            detail = f" (expected {self.expected!r}, observed {self.observed!r})"
        return f"{self.category}/{self.check}{where}: {self.message}{detail}"


class AuditError(AssertionError):
    """Raised (in ``raise`` mode) on the first invariant violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class AuditReport:
    """Accumulated outcome of one audited simulation."""

    violations: list = field(default_factory=list)
    #: checks executed per category -- anti-vacuity evidence
    checks: dict = field(default_factory=dict)

    def count(self, category: str, n: int = 1) -> None:
        self.checks[category] = self.checks.get(category, 0) + n

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_category(self, category: str) -> list:
        return [v for v in self.violations if v.category == category]

    def summary(self) -> str:
        total = sum(self.checks.values())
        head = (
            f"audit: {len(self.violations)} violation(s), "
            f"{total:,} checks "
            f"({', '.join(f'{k}: {v:,}' for k, v in sorted(self.checks.items()))})"
        )
        if not self.violations:
            return head
        return head + "\n" + "\n".join(f"  {v}" for v in self.violations[:40])
