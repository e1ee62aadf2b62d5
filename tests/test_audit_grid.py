"""The auditor's acceptance gate: the full grid, audited, at scale.

Every (program, lock scheme, consistency model) cell of the paper's grid
runs at default scale with a collect-mode invariant auditor riding the
fast run of the differential pair.  Three things are pinned at once:

* **zero violations** -- the real workloads never trip a coherence, bus,
  lock or accounting invariant;
* **observation-only auditing** -- the audited fast run must still
  serialize byte-identically to the unaudited reference run, so the
  auditor provably never perturbs a result;
* **non-vacuity** -- every cell must evaluate a healthy number of
  checks in every registered family (a sanitizer that checks nothing
  also reports nothing).
"""

import pytest

from repro.audit.report import CATEGORIES
from repro.testing import LOCK_SCHEMES, MODELS, SUITE_PROGRAMS, differential_check

pytestmark = pytest.mark.audit


@pytest.mark.repro
@pytest.mark.parametrize("program", SUITE_PROGRAMS)
def test_grid_cells_clean_under_audit(program):
    reports = differential_check(programs=(program,), scale=1.0, seed=1991, audit=True)
    assert len(reports) == len(LOCK_SCHEMES) * len(MODELS)
    bad = [r for r in reports if not r.equal]
    if bad:
        detail = "\n".join(f"{r.label}:\n  " + "\n  ".join(r.diffs) for r in bad)
        pytest.fail(
            f"auditing perturbed {len(bad)} cell(s):\n{detail}", pytrace=False
        )
    for r in reports:
        assert r.violations == 0, f"{r.label}: {r.violations} invariant violation(s)"
        # ~thousands of checks per cell at default scale; a collapse to
        # near zero means the hooks came unwired
        assert r.audit_checks > 1000, (
            f"{r.label}: auditor only evaluated {r.audit_checks} checks"
        )


@pytest.mark.parametrize("lock_scheme", LOCK_SCHEMES)
@pytest.mark.parametrize("model", MODELS)
def test_audit_families_all_engage(lock_scheme, model):
    """Per-family check counts are nonzero -- every invariant family
    actually exercised its checks on a small contended run."""
    from repro.consistency import get_model
    from repro.machine.config import MachineConfig
    from repro.machine.system import System
    from repro.sync import get_lock_manager
    from repro.workloads import generate_trace

    ts = generate_trace("pverify", scale=0.1, seed=7)
    system = System(
        ts,
        MachineConfig(n_procs=ts.n_procs, audit=True),
        get_lock_manager(lock_scheme),
        get_model(model),
    )
    system.run()
    report = system.audit.report
    assert not report.violations, report.summary()
    for category in CATEGORIES:
        assert report.checks.get(category, 0) > 0, (
            f"{category} auditor never evaluated a check: {report.checks}"
        )
