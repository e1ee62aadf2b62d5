"""Property-based tests for the runtime invariant auditor.

Random multi-processor lock/sharing programs (the same generator the
trace substrate uses) are pushed through full simulations with the
auditor attached.  Two properties must hold for *every* generated
program, under both lock-scheme families and both bus paths:

* the auditor finds nothing -- the simulator upholds its invariants on
  arbitrary programs, not just the six curated workloads;
* the auditor changes nothing -- the RunResult of an audited run
  serializes identically to the unaudited run.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import SystemAuditor
from repro.consistency import get_model
from repro.machine.config import MachineConfig
from repro.machine.system import System
from repro.runner.serialize import result_to_dict
from repro.sync import get_lock_manager
from tests.test_trace_properties import build_traceset, trace_programs

pytestmark = pytest.mark.audit


def _run(ts, lock_scheme, model, fast, audited):
    system = System(
        ts,
        MachineConfig(n_procs=ts.n_procs, bus_fast_path=fast, batch_records=4),
        get_lock_manager(lock_scheme),
        get_model(model),
    )
    if audited:
        auditor = SystemAuditor.attach(system, mode="collect")
    result = system.run()
    canon = json.loads(json.dumps(result_to_dict(result), sort_keys=True))
    return canon, (auditor.report if audited else None)


class TestAuditProperties:
    @given(st.lists(trace_programs(max_ops=25), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_random_programs_are_invariant_clean(self, programs):
        ts = build_traceset(programs)
        for lock_scheme in ("queuing", "ttas"):
            for fast in (True, False):
                _, report = _run(ts, lock_scheme, "sc", fast, audited=True)
                assert report.ok, report.summary()
                assert sum(report.checks.values()) > 0

    @given(st.lists(trace_programs(max_ops=25), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_auditing_never_changes_the_result(self, programs):
        ts = build_traceset(programs)
        for lock_scheme in ("queuing", "ttas"):
            for model in ("sc", "wo"):
                audited, report = _run(ts, lock_scheme, model, True, audited=True)
                plain, _ = _run(ts, lock_scheme, model, True, audited=False)
                assert report.ok, report.summary()
                assert audited == plain

    @given(st.lists(trace_programs(max_ops=20), min_size=2, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_weak_ordering_and_exact_queuing_also_clean(self, programs):
        """The less-travelled corners: WO's write buffering and the
        exact-queuing scheme's extra bus transactions."""
        ts = build_traceset(programs)
        for lock_scheme in ("exact-queuing", "tas"):
            _, report = _run(ts, lock_scheme, "wo", True, audited=True)
            assert report.ok, report.summary()
