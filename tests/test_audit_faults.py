"""Mutation coverage for the invariant auditor.

Each registered fault (:mod:`repro.audit.faults`) corrupts exactly one
protocol obligation of the simulator; running the corrupted machine
under a raise-mode auditor must abort with a violation of the expected
category and one of the fault's acceptable check names.  This is the
self-test that keeps the sanitizer honest: a checker nobody can trip is
indistinguishable from no checker at all.
"""

import pytest

from repro.audit import AuditError, SystemAuditor
from repro.audit.faults import FAULTS, LOCK_FAULTS, inject
from repro.audit.report import LOCK
from repro.consistency import SEQUENTIAL
from repro.machine.config import MachineConfig
from repro.machine.system import System
from repro.sync import get_lock_manager
from repro.workloads import generate_trace

pytestmark = pytest.mark.audit

#: heavy lock contention plus shared-counter invalidation traffic --
#: every fault class has something to corrupt
_TS = {}


def _traceset():
    if "ts" not in _TS:
        _TS["ts"] = generate_trace("synthetic", scale=0.3, seed=11)
    return _TS["ts"]


def _build(lock_scheme):
    ts = _traceset()
    return System(
        ts,
        MachineConfig(n_procs=ts.n_procs),
        get_lock_manager(lock_scheme),
        SEQUENTIAL,
    )


def _run_faulted(name, lock_scheme):
    system = _build(lock_scheme)
    SystemAuditor.attach(system, mode="raise")
    spec = inject(system, name)
    with pytest.raises(AuditError) as exc:
        system.run()
    return spec, exc.value.violation


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_detected_with_right_category_and_check(name):
    spec, violation = _run_faulted(name, "queuing")
    assert violation.category == spec.category, (
        f"{name}: expected a {spec.category} violation, got {violation}"
    )
    assert violation.check in spec.checks, (
        f"{name}: check {violation.check!r} not in {sorted(spec.checks)}"
    )


@pytest.mark.parametrize("name", ["double-owner", "waiter-count-skew", "skip-invalidation"])
def test_faults_also_detected_under_spin_locks(name):
    """The lock checks must not depend on the FIFO shadow queue: the
    spin schemes route through the same funnel and the same stats."""
    spec, violation = _run_faulted(name, "ttas")
    assert violation.category == spec.category
    assert violation.check in spec.checks


@pytest.mark.parametrize("name", sorted(LOCK_FAULTS))
def test_lock_zoo_fault_detected(name):
    """Each lock-zoo fault corrupts its target scheme's internals
    (queue-node hand-off, ticket order, backoff wakeups) and the lock
    auditor must name it -- including the deadlock sweep for the lost
    wakeup, which turns a bare hang into a waiters-at-exit violation."""
    spec = LOCK_FAULTS[name]
    spec_injected, violation = _run_faulted(name, spec.scheme)
    assert spec_injected is spec
    assert violation.category == spec.category, (
        f"{name}: expected a {spec.category} violation, got {violation}"
    )
    assert violation.check in spec.checks, (
        f"{name}: check {violation.check!r} not in {sorted(spec.checks)}"
    )


def test_double_grant_wraps_the_memory_kicks_too():
    """The memory module kicks the bus through a bound method captured
    when the System was built; the fault must re-point that reference,
    or the kicks memory issues bypass the corrupted arbiter."""
    system = _build("queuing")
    inject(system, "double-grant")
    assert system.memory._bus_kick is system.bus.kick


def test_lost_backoff_wakeup_names_the_stranded_waiter():
    """The deadlock diagnostic beats the machine's bare RuntimeError:
    the violation says who is still waiting on which lock."""
    _, violation = _run_faulted("lost-backoff-wakeup", "backoff")
    assert violation.check == "waiters-at-exit"
    assert "deadlock" in violation.message
    assert "waiting" in str(violation)


def test_spurious_claim_is_a_queue_jump():
    """An early ownership claim (the CLH swap-decides idiom) is only
    legal on a free lock with an empty queue; claiming a held lock is
    exactly the queue jump the hand-off checker exists to catch."""
    system = _build("clh")
    SystemAuditor.attach(system, mode="raise")
    mgr = system.locks
    real = mgr.acquire
    armed = [True]

    def jumping(proc, lock_id, line, time, grant_cb, _real=real):
        st = mgr.locks.get(lock_id)
        if armed and st is not None and st.owner is not None:
            armed.clear()
            mgr.audit.on_lock_claim(lock_id, proc, time)
        _real(proc, lock_id, line, time, grant_cb)

    mgr.acquire = jumping
    with pytest.raises(AuditError) as exc:
        system.run()
    violation = exc.value.violation
    assert violation.category == LOCK
    assert violation.check == "queue-node-handoff"


def test_violation_carries_structured_context():
    """A violation is debuggable: it names the cycle and the actors."""
    _, violation = _run_faulted("double-owner", "queuing")
    assert violation.cycle >= 0
    assert violation.proc >= 0
    assert violation.lock_id >= 0
    text = str(violation)
    assert "mutual-exclusion" in text
    assert "cycle" in text


def test_clean_run_raises_nothing():
    """Control: the same machine without a fault runs to completion with
    every check evaluated and none failed."""
    system = _build("queuing")
    auditor = SystemAuditor.attach(system, mode="raise")
    system.run()
    assert auditor.report.ok
    assert sum(auditor.report.checks.values()) > 0


def test_collect_mode_accumulates_instead_of_raising():
    system = _build("queuing")
    auditor = SystemAuditor.attach(system, mode="collect")
    inject(system, "waiter-count-skew")
    system.run()  # must not raise
    report = auditor.report
    assert not report.ok
    assert any(v.check == "stats-waiter-count" for v in report.violations)
    assert "stats-waiter-count" in report.summary()


def test_unknown_fault_name_rejected():
    system = _build("queuing")
    with pytest.raises(KeyError):
        inject(system, "no-such-fault")


def test_double_attach_rejected():
    system = _build("queuing")
    SystemAuditor.attach(system, mode="collect")
    with pytest.raises(RuntimeError):
        SystemAuditor.attach(system, mode="collect")
