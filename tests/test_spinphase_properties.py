"""Property-based tests of the spin-phase collapse kernel.

Three families:

* **Closed-form iteration math against reference** -- the kernel
  fast-forwards a holder's silent bounces in closed form: bounce ``m``
  of a run starting at record ``i0`` at local time ``t`` fires at
  ``t + c_cycles[i0 + m*batch] - c_cycles[i0]``, and both the horizon
  pre-truncation and the final clip count the bounces firing *strictly
  before* the horizon with one ``searchsorted`` over the strided
  prefix-sum array.  These properties re-derive that count with a
  per-bounce Python loop over the same tables and require exact
  agreement, including at the boundaries (a bounce firing exactly at
  the horizon must not be collapsed).

* **Dynamic equivalence** -- random valid multi-processor programs
  (shared locks, shared data, idle-signature, timer-signature and
  opaque schemes, both consistency models) run with ``spin_kernel`` on
  and off must produce byte-identical serialized results AND leave
  every cache in the identical microarchitectural state (MESI dict and
  LRU ways): collapsing a certified lock-wait phase is per-record
  replay, counter by counter and way by way.

* **Mid-spin interruption** -- hitting the engine's ``max_events``
  guard at *every* possible dispatch point of a contended run --
  including between a spin-phase collapse and its emitted resumes --
  leaves the engine's books consistent and the run resumable to the
  exact uninterrupted result.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import SEQUENTIAL, WEAK
from repro.machine.config import MachineConfig
from repro.machine.spinphase import SpinKernel
from repro.machine.system import System
from repro.runner.serialize import result_to_dict
from repro.sync import (
    BackoffTestAndSetLockManager,
    QueuingLockManager,
    TestAndSetLockManager,
    TicketLockManager,
)
from repro.trace.builder import TraceBuilder
from repro.trace.layout import AddressLayout
from repro.trace.records import TraceSet
from tests.test_trace_properties import build_traceset, trace_programs

schemes = st.sampled_from(
    [
        QueuingLockManager,  # idle signature (queue-parked)
        TicketLockManager,  # idle signature
        BackoffTestAndSetLockManager,  # timer signature (backed-off retry)
        TestAndSetLockManager,  # dense retries: window-rejected / opaque
    ]
)
models = st.sampled_from([SEQUENTIAL, WEAK])
programs_strategy = st.lists(trace_programs(max_ops=40), min_size=2, max_size=3)


def _canonical(result):
    return json.loads(json.dumps(result_to_dict(result), sort_keys=True))


def _contended_traceset(n_procs=2, iters=3, hot=150, program="spin-prop"):
    """Every processor hammers one shared lock; the critical sections
    are private hit loops long enough for multiple whole bounces."""
    layout = AddressLayout(n_procs=n_procs)
    lock = layout.alloc_lock()
    traces = []
    for p in range(n_procs):
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


class TestClosedFormAgainstReference:
    """The kernel's searchsorted bounce counting vs a per-bounce loop."""

    @given(programs_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_horizon_clip_counts_strictly_earlier_bounces(self, programs, data):
        """For any run start, local time and horizon, the kernel's
        closed-form clip (``searchsorted`` over the strided cumulative
        -cycle array) equals the number of whole bounces whose reference
        fire time is strictly before the horizon."""
        ts = build_traceset(programs)
        system = System(
            ts, MachineConfig(n_procs=ts.n_procs), TicketLockManager(), SEQUENTIAL
        )
        kern = system.kernel
        assert isinstance(kern, SpinKernel)
        batch = kern.batch
        proc = data.draw(st.integers(0, ts.n_procs - 1), label="proc")
        tab = kern.tabs[proc]
        n = len(tab.code)
        starts = [i for i in range(n) if tab.win_end[i] - i >= batch]
        if not starts:
            return
        i0 = data.draw(st.sampled_from(starts), label="i0")
        j_s = int(tab.win_end[i0])
        m_cap = (j_s - i0) // batch
        t = data.draw(st.integers(0, 10_000), label="local time")
        # horizons straddling the span's cycle range, incl. exact hits
        ac = tab.a_cycles
        span_cycles = int(ac[i0 + m_cap * batch]) - int(ac[i0])
        t_safe = t + data.draw(
            st.integers(-1, span_cycles + 2), label="horizon offset"
        )

        # the kernel's closed form (kernel.attempt, horizon clip)
        u = ac[i0 : i0 + m_cap * batch + 1 : batch]
        m_star = int(np.searchsorted(u[:m_cap], t_safe - t + int(ac[i0])))

        # the per-bounce reference: bounce m fires at
        # t + cc[i0 + m*batch] - cc[i0]
        cc = tab.c_cycles
        ref = 0
        for m in range(m_cap):
            fire = t + cc[i0 + m * batch] - cc[i0]
            if fire < t_safe:
                ref += 1
            else:
                break
        assert m_star == ref
        # the strictness boundary: a bounce firing exactly at the
        # horizon is never collapsed
        if ref < m_cap:
            fire = t + cc[i0 + ref * batch] - cc[i0]
            assert fire >= t_safe

    @given(programs_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_analysis_pretruncation_never_drops_a_retirable_bounce(
        self, programs, data
    ):
        """The horizon pre-truncation of the *analysis* window (whole
        bounces, rounded up) always covers every bounce the final clip
        could retire: truncating the work can never change the result."""
        ts = build_traceset(programs)
        system = System(
            ts, MachineConfig(n_procs=ts.n_procs), TicketLockManager(), SEQUENTIAL
        )
        kern = system.kernel
        batch = kern.batch
        proc = data.draw(st.integers(0, ts.n_procs - 1), label="proc")
        tab = kern.tabs[proc]
        n = len(tab.code)
        starts = [i for i in range(n) if tab.win_end[i] - i >= batch]
        if not starts:
            return
        i0 = data.draw(st.sampled_from(starts), label="i0")
        j_s = int(tab.win_end[i0])
        t = data.draw(st.integers(0, 10_000), label="local time")
        ac = tab.a_cycles
        span_cycles = int(ac[j_s - (j_s - i0) % batch]) - int(ac[i0])
        t_safe = t + data.draw(
            st.integers(0, span_cycles + 2), label="horizon offset"
        )

        # kernel.attempt's pre-truncation: searchsorted over the strided
        # array *including* the terminating entry
        m_h = int(
            np.searchsorted(ac[i0 : j_s + 1 : batch], t_safe - t + int(ac[i0]))
        )
        j_trunc = min(j_s, i0 + m_h * batch)

        # no bounce entirely inside [i0, j_trunc)'s complement can fire
        # strictly before t_safe: everything beyond the truncated window
        # was unretirable anyway
        cc = tab.c_cycles
        m_trunc = (j_trunc - i0) // batch
        m_all = (j_s - i0) // batch
        for m in range(m_trunc, m_all):
            fire = t + cc[i0 + m * batch] - cc[i0]
            assert fire >= t_safe


class TestDynamicEquivalence:
    @given(programs_strategy, schemes, models)
    @settings(max_examples=40, deadline=None)
    def test_spin_kernel_is_byte_identical_and_microarch_identical(
        self, programs, scheme_cls, model
    ):
        ts = build_traceset(programs)
        results = {}
        states = {}
        ways = {}
        for spin_on in (True, False):
            system = System(
                ts,
                MachineConfig(n_procs=ts.n_procs, spin_kernel=spin_on),
                scheme_cls(),
                model,
                max_events=2_000_000,
            )
            # engage even on tiny traces: every gate here is a cost
            # heuristic, never a legality condition
            system.kernel.min_span = 1
            system.kernel.backoff = 0
            if spin_on:
                system.kernel.min_window = 0
                system.kernel._gate = 0
            results[spin_on] = _canonical(system.run())
            states[spin_on] = [dict(c.state) for c in system.caches]
            ways[spin_on] = [list(c._ways) for c in system.caches]
        assert results[True] == results[False]
        assert states[True] == states[False]
        assert ways[True] == ways[False]

    def test_spin_kernel_actually_collapses_contended_phases(self):
        """Anti-vacuity at default gates: a contended hot loop produces
        waiter-bearing collapses under both signature kinds, with the
        certification counters accounting for every certified waiter."""
        for scheme_cls, kind in (
            (TicketLockManager, "idle"),
            (BackoffTestAndSetLockManager, "timer"),
        ):
            ts = _contended_traceset(n_procs=4, iters=6, hot=400)
            system = System(
                ts, MachineConfig(n_procs=4), scheme_cls(), SEQUENTIAL
            )
            system.run()
            kern = system.kernel
            assert kern.spin_segments > 0, kind
            assert kern.spin_waiters >= kern.spin_segments, kind
            certs = kern.spin_idle_certs + kern.spin_timer_certs
            assert certs >= kern.spin_waiters, kind
            if kind == "idle":
                assert kern.spin_idle_certs > 0
            else:
                assert kern.spin_timer_certs > 0


class TestInterruption:
    def test_max_events_overflow_mid_spin_is_resumable(self):
        """Hitting ``max_events`` at every possible dispatch point --
        including mid-spin, between a waiter-bearing collapse and the
        holder's emitted resume -- leaves the engine's books consistent
        and the preserved queue drains to the exact uninterrupted
        result."""
        ts = _contended_traceset(n_procs=2, iters=3, hot=150)

        def build(k=None):
            return System(
                ts,
                MachineConfig(n_procs=2),
                TicketLockManager(),
                SEQUENTIAL,
                max_events=k,
            )

        ref_sys = build()
        ref = _canonical(ref_sys.run())
        total = ref_sys.engine.dispatched_total
        assert ref_sys.kernel.spin_segments > 0  # the spin path engaged

        mid_spin = 0
        for k in range(1, total):
            system = build(k)
            with pytest.raises(RuntimeError, match="exceeded"):
                system.run()
            engine = system.engine
            assert engine.pending() == sum(
                len(b) for b in engine._buckets.values()
            )
            assert sorted(engine._times) == sorted(engine._buckets)
            if system.kernel.spin_segments and not all(
                p.done for p in system.procs
            ):
                mid_spin += 1
            engine.run()  # drain the preserved tail to completion
            assert _canonical(system._collect()) == ref
        assert mid_spin > 0  # some interruptions landed mid-spin
