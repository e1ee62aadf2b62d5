"""Mutation coverage for the spin-phase auditor.

Each SPIN fault (:data:`repro.audit.faults.SPIN_FAULTS`) corrupts one
leg of the spin-phase collapse kernel's certification -- the lock port's
spin signature, the timer horizon, or the per-phase waiter list -- and
the spin auditor's independent re-derivation must catch the first
corrupted collapse with the right check.  The faults need a *contended*
workload (every fault arms inside a lock-wait phase, which the base
kernel faults never enter) with critical sections long enough to clear
the entry gate and, for the timer faults, to span several backed-off
retry windows.

Note the faults corrupt the *proof*, not necessarily the outcome: the
horizon is a conservative legality bound, so a collapse with a corrupted
certificate can still happen to commute and leave the results
byte-identical.  That is exactly why the auditor must reject invalid
certificates at the collapse instead of trusting end-to-end comparisons
to notice.
"""

import pytest

from repro.audit import AuditError, SystemAuditor
from repro.audit.faults import SPIN_FAULTS, inject
from repro.audit.report import SPIN
from repro.consistency import SEQUENTIAL
from repro.machine.config import MachineConfig
from repro.machine.system import System
from repro.sync import get_lock_manager
from repro.trace.builder import TraceBuilder
from repro.trace.layout import AddressLayout
from repro.trace.records import TraceSet

pytestmark = pytest.mark.audit

N_PROCS = 4


def _contended_traceset(iters=6, hot=400, program="spin-fault"):
    """All processors hammer ONE shared lock; each critical section is a
    private hit loop long enough (800 records, ~1200 cycles) to clear
    the kernel's entry gate and to span multiple backoff retry windows
    (cap 512 cycles), so every hold produces waiter-bearing collapse
    attempts."""
    layout = AddressLayout(n_procs=N_PROCS)
    lock = layout.alloc_lock()
    traces = []
    for p in range(N_PROCS):
        b = TraceBuilder(p, program=program)
        code = layout.alloc_code(64)
        base = layout.alloc_private(p, 8 * 16)
        for j in range(8):  # warm the working set: later reads all hit
            b.read(base + 16 * j)
        for _ in range(iters):
            b.lock(0, lock)
            for j in range(hot):
                b.block(2, 2, code)
                b.read(base + 16 * (j % 8))
            b.unlock(0, lock)
        traces.append(b.finish())
    return TraceSet(traces, layout, program=program)


def _system(scheme, spin_kernel=True):
    ts = _contended_traceset()
    cfg = MachineConfig(n_procs=N_PROCS, spin_kernel=spin_kernel)
    return System(ts, cfg, get_lock_manager(scheme), SEQUENTIAL)


# -- the mutation battery ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPIN_FAULTS))
def test_spin_fault_detected_with_right_category_and_check(name):
    spec = SPIN_FAULTS[name]
    system = _system(spec.scheme)
    SystemAuditor.attach(system, mode="raise")
    inject(system, name)
    with pytest.raises(AuditError) as exc:
        system.run()
    violation = exc.value.violation
    assert violation.category == SPIN, (
        f"{name}: expected a {SPIN} violation, got {violation}"
    )
    assert violation.check in spec.checks, (
        f"{name}: check {violation.check!r} not in {sorted(spec.checks)}"
    )


@pytest.mark.parametrize("name", sorted(SPIN_FAULTS))
def test_same_machine_runs_clean_without_the_fault(name):
    """Control: the same contended workload under the same scheme,
    unfaulted, runs to completion under a raise-mode auditor -- with
    real spin collapses certified and audited (anti-vacuity)."""
    spec = SPIN_FAULTS[name]
    system = _system(spec.scheme)
    auditor = SystemAuditor.attach(system, mode="raise")
    system.run()
    assert auditor.report.ok
    assert system.kernel.spin_segments > 0
    assert auditor.report.checks.get(SPIN, 0) > 0


@pytest.mark.parametrize("name", sorted(SPIN_FAULTS))
def test_collect_mode_reports_every_corrupted_collapse(name):
    """In collect mode the run completes and the report carries at
    least one violation from the target family's checks."""
    spec = SPIN_FAULTS[name]
    system = _system(spec.scheme)
    auditor = SystemAuditor.attach(system, mode="collect")
    inject(system, name)
    system.run()
    spin_violations = auditor.report.by_category(SPIN)
    assert spin_violations, f"{name}: no SPIN violations collected"
    assert any(v.check in spec.checks for v in spin_violations)


def test_spin_faults_require_the_spin_kernel():
    for name, spec in sorted(SPIN_FAULTS.items()):
        system = _system(spec.scheme, spin_kernel=False)
        with pytest.raises(RuntimeError):
            inject(system, name)
