"""Closing a finished System frees its machine by reference counting.

A System's bound-method trampolines and back-references form cycles, so
without :meth:`System.close` a finished machine waits for a full
collection.  These tests run with the collector disabled, so a machine
that only a collection could free stays visible in ``gc.get_objects()``.
They also check what close leaves: the caller's lock manager and its
statistics, the single-use guard, and inputs that reproduce the same
digests when reused across closed runs.
"""

import gc
import hashlib
import weakref

import pytest

from repro.consistency import get_model
from repro.core.experiment import Experiment
from repro.machine import processor
from repro.machine.bus import Bus
from repro.machine.buffers import CacheBusBuffer
from repro.machine.cache import Cache
from repro.machine.config import MachineConfig
from repro.machine.engine import Engine
from repro.machine.memory import Memory, MemoryPort
from repro.machine.processor import Processor
from repro.machine.system import System, simulate
from repro.runner import JobSpec
from repro.runner.serialize import result_to_json
from repro.sync import LOCK_SCHEMES, get_lock_manager
from repro.testing.differential import run_cell
from repro.workloads import generate_trace

SCHEMES = sorted(LOCK_SCHEMES)
MODELS = ("sc", "wo")
#: a small trace with contended locks (qsort's work queue)
PROGRAM, SCALE, SEED = "qsort", 0.01, 3
MACHINE_TYPES = (
    System, Processor, Cache, CacheBusBuffer, Bus, Memory, MemoryPort, Engine
)


@pytest.fixture(scope="module")
def traceset():
    return generate_trace(PROGRAM, scale=SCALE, seed=SEED)


def _digest(result) -> str:
    return hashlib.sha256(result_to_json(result).encode()).hexdigest()


def _machine_objects(known=frozenset()):
    return [
        o
        for o in gc.get_objects()
        if isinstance(o, MACHINE_TYPES) and id(o) not in known
    ]


def test_no_machine_outlives_its_run(traceset):
    gc.collect()
    known = frozenset(id(o) for o in _machine_objects())
    gc.disable()
    try:
        for scheme in SCHEMES:
            for model in MODELS:
                JobSpec(
                    program=PROGRAM,
                    scale=SCALE,
                    seed=SEED,
                    lock_scheme=scheme,
                    consistency=model,
                    traceset=traceset,
                ).run()
                simulate(traceset, None, get_lock_manager(scheme), get_model(model))
                Experiment(
                    traceset=traceset, lock_scheme=scheme, consistency=model
                ).run()
                report = run_cell(traceset, scheme, model, audit=scheme == "queuing")
                assert report.equal
        left = _machine_objects(known)
        assert not left, f"{len(left)} machine objects outlived their runs"
    finally:
        gc.enable()


def test_audited_runs_leave_no_auditor(traceset):
    """An auditor and its sub-auditors point at each other; closing the
    System breaks that cycle, and the report stays readable."""
    from repro.audit import SystemAuditor
    from repro.audit.coherence import CoherenceAuditor
    from repro.audit.report import AuditReport

    audit_types = (SystemAuditor, CoherenceAuditor, AuditReport)
    gc.collect()
    known = frozenset(id(o) for o in gc.get_objects() if isinstance(o, audit_types))
    config = MachineConfig(n_procs=traceset.n_procs, audit=True)
    gc.disable()
    try:
        for scheme in ("queuing", "ttas"):
            for model in MODELS:
                simulate(traceset, config, get_lock_manager(scheme), get_model(model))
                report = run_cell(traceset, scheme, model, audit=True)
                assert report.equal and report.violations == 0
                assert report.audit_checks > 0
        system = System(traceset, config, get_lock_manager("mcs"), get_model("sc"))
        auditor = system.audit
        system.run()
        system.close()
        assert auditor.report.ok and sum(auditor.report.checks.values()) > 0
        del system, auditor
        left = [
            o
            for o in gc.get_objects()
            if isinstance(o, audit_types) and id(o) not in known
        ]
        assert not left, f"{len(left)} audit objects outlived their runs"
    finally:
        gc.enable()


def test_lock_manager_passed_to_simulate_stays_readable(traceset):
    manager = get_lock_manager("ttas")
    result = simulate(traceset, lock_manager=manager, model=get_model("wo"))
    assert manager.locks, "the trace should take locks"
    assert manager.stats.snapshot() == result.lock_stats
    assert manager.machine is None  # detached from the closed machine


def test_closed_system_keeps_its_inputs_and_cannot_run(traceset):
    config = MachineConfig(n_procs=traceset.n_procs)
    manager = get_lock_manager("queuing")
    model = get_model("sc")
    system = System(traceset, config, manager, model)
    result = system.run()
    system.close()
    system.close()  # a second close is a no-op
    assert system.traceset is traceset and system.config is config
    assert system.locks is manager and system.model is model
    assert result.proc_metrics[0].refs_processed > 0
    with pytest.raises(RuntimeError, match="single-use"):
        system.run()
    unrun = System(traceset, config, get_lock_manager("queuing"), model)
    unrun.close()
    with pytest.raises(RuntimeError, match="single-use"):
        unrun.run()


def test_reused_inputs_reproduce_the_digests(traceset):
    config = MachineConfig(n_procs=traceset.n_procs)
    model = get_model("wo")
    passes = [
        [
            _digest(simulate(traceset, config, get_lock_manager(s), model))
            for s in SCHEMES
        ]
        for _ in range(2)
    ]
    fresh = [
        _digest(
            JobSpec(
                program=PROGRAM, scale=SCALE, seed=SEED, lock_scheme=s, consistency="wo"
            ).run()
        )
        for s in SCHEMES
    ]
    assert passes[0] == passes[1] == fresh


def test_dropped_traceset_leaves_the_interpreter_memo():
    ts = generate_trace(PROGRAM, scale=SCALE, seed=SEED + 1)
    simulate(ts)
    arrays = [weakref.ref(t.records) for t in ts]
    keys = {id(t.records) for t in ts}
    assert keys <= processor._interp_memo.keys()
    del ts
    gc.collect()
    assert all(a() is None for a in arrays), "the trace should be freed"
    dead = [k for k, ent in processor._interp_memo.items() if ent[0]() is None]
    assert not dead, f"{len(dead)} memo entries of freed traces remain"
