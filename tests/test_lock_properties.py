"""Property-based contract tests for the whole lock-scheme registry.

Where tests/test_locks_properties.py drives the four original schemes
through flat critical sections, this suite stresses the shapes the
extension lock zoo must also survive, over every scheme in
``repro.sync.LOCK_SCHEMES``:

* random acquire/release with *nesting* -- ordered multi-lock critical
  sections (always acquired in ascending lock order, so the scripts
  are deadlock-free by construction);
* hand-over-hand (lock-coupling) chains -- the next lock is taken
  before the previous one is dropped, the pattern that breaks managers
  which assume release order mirrors acquire order;
* same-cycle contention storms -- every processor requests the same
  lock at time zero;
* shadow-queue agreement -- full-machine runs under a collect-mode
  auditor must come back violation-free for every scheme (FIFO order,
  queue-node hand-off, stats cross-accounting);
* byte-identity -- toggling the bus fast path must leave every
  scheme's serialized results untouched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import SystemAuditor
from repro.consistency import SEQUENTIAL
from repro.machine.system import System
from repro.sync import LOCK_SCHEMES, get_lock_manager
from repro.testing.differential import run_cell
from tests.conftest import make_traceset, tiny_machine
from tests.mock_machine import MockMachine
from tests.test_locks_in_system import contended_traceset

BASE_LINE = 0x2000_0000 >> 4

scheme_names = st.sampled_from(sorted(LOCK_SCHEMES))

#: per-processor scripts of nested critical sections: (start_delay,
#: ordered lock ids to hold together, cycles to hold them)
nested_scripts = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, 100),
            st.sets(st.integers(1, 3), min_size=1, max_size=3).map(sorted),
            st.integers(1, 60),
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=2,
    max_size=4,
)


def _line(lock_id: int) -> int:
    return BASE_LINE + lock_id


class NestedDriver:
    """Acquires a section's locks in ascending order, holds, releases
    in descending order, then moves to the next section."""

    def __init__(self, machine, mgr, proc, script, log):
        self.machine = machine
        self.mgr = mgr
        self.proc = proc
        self.script = list(script)
        self.log = log
        self.done = False

    def start(self):
        self._next_section(0)

    def _next_section(self, t):
        if not self.script:
            self.done = True
            return
        delay, locks, hold = self.script.pop(0)
        self.machine.at(t + delay, lambda t2: self._acquire(list(locks), locks, hold, t2))

    def _acquire(self, todo, locks, hold, t):
        if not todo:
            self.machine.at(t + hold, lambda t2: self._release(list(reversed(locks)), t2))
            return
        lid = todo.pop(0)

        def granted(t2, contended, lid=lid):
            self.log.append(("acq", self.proc, lid, t2))
            self._acquire(todo, locks, hold, t2)

        self.mgr.acquire(self.proc, lid, _line(lid), t, granted)

    def _release(self, todo, t):
        if not todo:
            self._next_section(t)
            return
        lid = todo.pop(0)
        self.log.append(("rel", self.proc, lid, t))
        self.mgr.release(self.proc, lid, _line(lid), t, lambda t2, _c: self._release(todo, t2))


class HandOverHandDriver:
    """Lock coupling down a chain: take lock i+1, then drop lock i."""

    def __init__(self, machine, mgr, proc, delay, chain, hold, log):
        self.machine = machine
        self.mgr = mgr
        self.proc = proc
        self.delay = delay
        self.chain = list(chain)
        self.hold = hold
        self.log = log
        self.done = False

    def start(self):
        first = self.chain[0]
        self.machine.at(
            self.delay,
            lambda t: self.mgr.acquire(self.proc, first, _line(first), t, self._granted(0)),
        )

    def _granted(self, idx):
        def cb(t, contended):
            self.log.append(("acq", self.proc, self.chain[idx], t))
            self.machine.at(t + self.hold, lambda t2: self._advance(idx, t2))

        return cb

    def _advance(self, idx, t):
        if idx + 1 < len(self.chain):
            nxt = self.chain[idx + 1]
            self.mgr.acquire(self.proc, nxt, _line(nxt), t, self._coupled(idx))
        else:
            self._drop(self.chain[idx], t, final=True)

    def _coupled(self, idx):
        def cb(t, contended):
            self.log.append(("acq", self.proc, self.chain[idx + 1], t))
            self._drop(self.chain[idx], t, final=False, next_idx=idx + 1)

        return cb

    def _drop(self, lid, t, final, next_idx=0):
        self.log.append(("rel", self.proc, lid, t))

        def released(t2, _contended):
            if final:
                self.done = True
            else:
                self.machine.at(t2 + self.hold, lambda t3: self._advance(next_idx, t3))

        self.mgr.release(self.proc, lid, _line(lid), t, released)


def _check_safety(log):
    """Per-lock alternation: an acquire only on a free lock, a release
    only by the holder."""
    holder: dict[int, int | None] = {}
    for kind, proc, lid, _t in sorted(log, key=lambda e: (e[3], e[0] == "acq")):
        if kind == "acq":
            assert holder.get(lid) is None, (
                f"proc {proc} acquired lock {lid} held by {holder[lid]}"
            )
            holder[lid] = proc
        else:
            assert holder.get(lid) == proc
            holder[lid] = None
    assert all(h is None for h in holder.values())


class TestNestedAndCoupled:
    @given(scheme_names, nested_scripts)
    @settings(max_examples=60, deadline=None)
    def test_nested_sections_safe_and_live(self, scheme, scripts):
        m = MockMachine()
        mgr = get_lock_manager(scheme)
        m.attach_manager(mgr)
        log = []
        drivers = [NestedDriver(m, mgr, p, s, log) for p, s in enumerate(scripts)]
        for d in drivers:
            d.start()
        m.run()
        assert all(d.done for d in drivers)
        total = sum(len(locks) for s in scripts for _d, locks, _h in s)
        assert len([e for e in log if e[0] == "acq"]) == total
        assert len([e for e in log if e[0] == "rel"]) == total
        _check_safety(log)
        mgr.check_invariants()
        assert mgr.stats.snapshot().acquisitions == total

    @given(
        scheme_names,
        st.lists(st.tuples(st.integers(0, 50), st.integers(1, 30)), min_size=2, max_size=4),
        st.integers(2, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_hand_over_hand_chains(self, scheme, procs, chain_len):
        m = MockMachine()
        mgr = get_lock_manager(scheme)
        m.attach_manager(mgr)
        log = []
        chain = list(range(1, chain_len + 1))
        drivers = [
            HandOverHandDriver(m, mgr, p, delay, chain, hold, log)
            for p, (delay, hold) in enumerate(procs)
        ]
        for d in drivers:
            d.start()
        m.run()
        assert all(d.done for d in drivers)
        assert len([e for e in log if e[0] == "acq"]) == len(procs) * chain_len
        _check_safety(log)
        mgr.check_invariants()

    @given(scheme_names, st.integers(2, 8), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_same_cycle_contention_storm(self, scheme, n_procs, hold):
        """Every processor requests the same lock at time zero."""
        m = MockMachine()
        mgr = get_lock_manager(scheme)
        m.attach_manager(mgr)
        log = []
        scripts = [[(0, [1], hold)]] * n_procs
        drivers = [NestedDriver(m, mgr, p, s, log) for p, s in enumerate(scripts)]
        for d in drivers:
            d.start()
        m.run()
        assert all(d.done for d in drivers)
        _check_safety(log)
        stats = mgr.stats.snapshot()
        assert stats.acquisitions == n_procs
        # a storm of n requests resolves into at most n-1 hand-offs
        assert stats.transfers <= n_procs - 1


@given(scheme_names, st.integers(2, 5), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_shadow_queue_agreement_full_machine(scheme, n_procs, css):
    """A collect-mode auditor sees zero violations on a full-machine
    contended run: the manager's queue behaviour agrees with the
    auditor's shadow queue (enqueue order, hand-off successor, claim
    legality) and its stats with the observed totals."""
    ts = contended_traceset(n_procs=n_procs, css=css)
    system = System(ts, tiny_machine(n_procs=n_procs), get_lock_manager(scheme), SEQUENTIAL)
    auditor = SystemAuditor.attach(system, mode="collect")
    system.run()
    assert auditor.report.violations == [], [
        str(v) for v in auditor.report.violations
    ]


@pytest.mark.parametrize("knob", ["bus_fast_path"])
@pytest.mark.parametrize("scheme", sorted(LOCK_SCHEMES))
def test_byte_identity_per_knob(scheme, knob):
    """Toggling ``knob`` -- the bus fast path, the one knob ``run_cell``
    flips -- must not change a single serialized field under any lock
    scheme."""
    ts = contended_traceset(n_procs=4, css=4)
    rep = run_cell(ts, scheme, "sc", program="prop")
    assert rep.equal, rep.diffs
