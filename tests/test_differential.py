"""The bus fast path's acceptance gate: differential equality on the suite.

Every (program, lock scheme, consistency model) cell of the paper's
grid is run at default scale with ``bus_fast_path`` on and off; the two
serialized results must agree on every field, and the production run's
digest must match the reference interpreter's table pinned under
``tests/golden/reference-digests/``.  An optimization may only ever be
a *speed* change -- enforced on the real workloads, not just the
property suites' random traces.

The full-grid cells are grouped per program (the traceset is generated
once and shared by its twelve cells) and marked ``repro`` like the
other full-scale shape tests.
"""

import pytest

from repro.machine.engine import HeapEngine
from repro.testing import (
    LOCK_SCHEMES,
    MODELS,
    SUITE_PROGRAMS,
    differential_check,
    run_cell,
)

from .test_reference_digests import reference_digests


@pytest.mark.repro
@pytest.mark.parametrize("program", SUITE_PROGRAMS)
def test_fast_path_byte_identical_at_default_scale(program):
    reports = differential_check(programs=(program,), scale=1.0, seed=1991)
    assert len(reports) == len(LOCK_SCHEMES) * len(MODELS)
    bad = [r for r in reports if not r.equal]
    if bad:
        detail = "\n".join(
            f"{r.label}:\n  " + "\n  ".join(r.diffs) for r in bad
        )
        pytest.fail(
            f"fast path diverged on {len(bad)} cell(s):\n{detail}", pytrace=False
        )
    # the production run against the reference interpreter's pinned digests
    want = reference_digests(1991, 1.0)
    bad = [r.label for r in reports if r.digest != want[r.label]]
    assert not bad, f"digest differs from the reference table: {bad}"


def test_bucketed_engine_matches_heap_engine():
    """The production event queue against its executable specification:
    a whole simulation driven through HeapEngine must serialize
    identically to one driven through the default bucketed Engine."""
    import json

    from repro.consistency import SEQUENTIAL, WEAK
    from repro.machine.config import MachineConfig
    from repro.machine.system import System
    from repro.runner.serialize import result_to_dict
    from repro.sync import QueuingLockManager
    from repro.workloads import generate_trace

    ts = generate_trace("grav", scale=0.25, seed=1991)

    def run(engine_factory, model):
        system = System(
            ts,
            MachineConfig(n_procs=ts.n_procs),
            QueuingLockManager(),
            model,
            engine_factory=engine_factory,
        )
        return json.loads(json.dumps(result_to_dict(system.run()), sort_keys=True))

    for model in (SEQUENTIAL, WEAK):
        assert run(None, model) == run(HeapEngine, model)

    # and the differential harness accepts an engine_factory, so the
    # bus fast path can be cross-checked under either queue implementation
    report = run_cell(
        ts, lock_scheme="queuing", consistency="sc", engine_factory=HeapEngine
    )
    assert report.equal, "\n".join(report.diffs)
