"""The fast paths' acceptance gate: differential equality on the suite.

Every (program, lock scheme, consistency model) cell of the paper's
grid is run at default scale with the optimization knobs (``fast_path``,
``bus_fast_path``, ``segment_kernel``) on and off; the two serialized
results must agree on every field.  This is the tentpole guarantee --
an optimization may only ever be a *speed* change -- enforced on the
real workloads, not just the property suites' random traces.  A reduced
knob *cube* additionally checks every axis alone and in combination on
the cell with the strongest segment-kernel engagement, and a dedicated
quiet-workload cell covers the regime the contended suite barely
reaches (the kernel retiring nearly everything).

The full-grid cells are grouped per program (the traceset is generated
once and shared by its four cells) and marked ``repro`` like the other
full-scale shape tests.
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

_TS = {}


def _suite_trace(program):
    if program not in _TS:
        from repro.workloads import generate_trace

        _TS[program] = generate_trace(program, scale=1.0, seed=1991)
    return _TS[program]


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
    # anti-vacuity: at default scale the fast path must actually engage
    for r in reports:
        assert r.fp_windows > 0, f"{r.label}: fast path never retired a window"


#: the three record-retirement axes alone and in combination, swept on
#: a full-scale suite cell; the full triple is part of the VARY_ALL
#: default the grid test above already sweeps, kept here so the cube is
#: complete
KNOB_CUBE = [
    ("fast_path",),
    ("bus_fast_path",),
    ("segment_kernel",),
    ("fast_path", "bus_fast_path"),
    ("fast_path", "segment_kernel"),
    ("bus_fast_path", "segment_kernel"),
    ("fast_path", "bus_fast_path", "segment_kernel"),
]

#: every non-empty subset of all four optimization axes (2^4 - 1),
#: including the spin-phase collapse kernel; swept on a reduced-scale
#: crafted contended cell where every axis demonstrably engages (the
#: suite workloads barely contend, so the spin axis would be vacuous
#: on them)
SPIN_KNOB_CUBE = [
    ("fast_path",),
    ("bus_fast_path",),
    ("segment_kernel",),
    ("spin_kernel",),
    ("fast_path", "bus_fast_path"),
    ("fast_path", "segment_kernel"),
    ("fast_path", "spin_kernel"),
    ("bus_fast_path", "segment_kernel"),
    ("bus_fast_path", "spin_kernel"),
    ("segment_kernel", "spin_kernel"),
    ("fast_path", "bus_fast_path", "segment_kernel"),
    ("fast_path", "bus_fast_path", "spin_kernel"),
    ("fast_path", "segment_kernel", "spin_kernel"),
    ("bus_fast_path", "segment_kernel", "spin_kernel"),
    ("fast_path", "bus_fast_path", "segment_kernel", "spin_kernel"),
]


@pytest.mark.repro
@pytest.mark.parametrize("vary", KNOB_CUBE, ids="+".join)
def test_optimization_knob_cube_byte_identical(vary):
    """Each optimization knob is byte-neutral *independently*, not just
    as part of the fully-optimized configuration: toggling any subset of
    axes (the untoggled ones stay at their defaults on both sides) must
    not change a single serialized field.  Run on topopt, the suite cell
    with the strongest segment-kernel engagement."""
    report = run_cell(
        _suite_trace("topopt"),
        lock_scheme="queuing",
        consistency="sc",
        program="topopt",
        vary=vary,
    )
    assert report.equal, f"{'+'.join(vary)}:\n  " + "\n  ".join(report.diffs)
    if "segment_kernel" in vary:
        # anti-vacuity: the axis under test must actually engage
        assert report.kernel_segments > 0, "segment kernel never collapsed"


def _contended_cube_trace():
    """Four processors hammering one shared lock, each critical section
    a private hit loop: all four optimization axes engage (private
    windows in the hot loops, quiet segments and spin phases at the
    lock-wait episodes, bus fast path on the hand-offs)."""
    from repro.trace.builder import TraceBuilder
    from repro.trace.layout import AddressLayout
    from repro.trace.records import TraceSet

    layout = AddressLayout(n_procs=4)
    lock = layout.alloc_lock()
    traces = []
    for p in range(4):
        b = TraceBuilder(p, program="spin-cube")
        code = layout.alloc_code(64)
        base = layout.alloc_private(p, 8 * 16)
        for j in range(8):  # warm the working set: later reads all hit
            b.read(base + 16 * j)
        for _ in range(10):
            b.lock(0, lock)
            for j in range(300):
                b.block(2, 2, code)
                b.read(base + 16 * (j % 8))
            b.unlock(0, lock)
        traces.append(b.finish())
    return TraceSet(traces, layout, program="spin-cube")


@pytest.mark.parametrize("vary", SPIN_KNOB_CUBE, ids="+".join)
def test_spin_knob_cube_byte_identical(vary):
    """The full 2^4 optimization cube on a contended cell: any subset of
    the four axes -- window fast path, bus fast path, segment kernel,
    spin kernel -- toggled together (untouched axes at their defaults on
    both sides) must not change a single serialized field, and every
    axis under test must actually engage on the fast side."""
    from repro.machine.config import MachineConfig

    report = run_cell(
        _contended_cube_trace(),
        lock_scheme="ticket",
        consistency="sc",
        program="spin-cube",
        config=MachineConfig(n_procs=4),
        vary=vary,
    )
    assert report.equal, f"{'+'.join(vary)}:\n  " + "\n  ".join(report.diffs)
    # anti-vacuity: the fast side always runs with every knob at its
    # default-on setting, so all four mechanisms must have fired
    assert report.fp_windows > 0, "window fast path never retired"
    assert report.kernel_segments > 0, "kernel never collapsed a segment"
    assert report.spin_segments > 0, "spin kernel never collapsed a phase"


def test_segment_kernel_axis_on_quiet_workload():
    """The contended suite exercises the kernel only at its quiet edges;
    this cell is the opposite regime -- an uncontended multi-processor
    private phase where the kernel retires most of the trace -- checked
    byte-identical against the reference interpreter under both models."""
    from repro.machine.config import MachineConfig

    from .conftest import make_traceset

    def prog(b, layout):
        code = layout.alloc_code(1024)
        data = layout.alloc_private(b.proc, 1024)
        for _ in range(200):
            b.block(8, 8, code)
            for j in range(8):
                b.read(data + 64 * j, reps=4)
                b.write(data + 64 * j, reps=2)

    ts = make_traceset([prog] * 4, program="quiet")
    total = sum(len(t.records) for t in ts)
    for model in MODELS:
        report = run_cell(
            ts,
            consistency=model,
            program="quiet",
            config=MachineConfig(n_procs=4),
            vary=("segment_kernel",),
        )
        assert report.equal, f"{model}:\n  " + "\n  ".join(report.diffs)
        assert report.kernel_records > 0.5 * total, (
            f"{model}: kernel retired only "
            f"{report.kernel_records}/{total} records"
        )


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
    # fast path can be cross-checked under either queue implementation
    report = run_cell(
        ts, lock_scheme="queuing", consistency="sc", engine_factory=HeapEngine
    )
    assert report.equal, "\n".join(report.diffs)
