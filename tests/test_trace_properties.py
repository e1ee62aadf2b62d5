"""Property-based tests for the trace substrate."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace.builder import TraceBuilder
from repro.trace.encode import dumps_traceset, loads_traceset
from repro.trace.layout import CODE_BASE, LOCK_BASE, AddressLayout
from repro.trace.records import (
    BARRIER,
    IBLOCK,
    LOCK,
    RECORD_DTYPE,
    UNLOCK,
    Trace,
    TraceSet,
)
from repro.trace.stats import compute_trace_stats
from repro.trace.validate import (
    TraceValidationError,
    critical_sections,
    validate_trace,
    validate_traceset,
)


@st.composite
def trace_programs(draw, max_ops=60):
    """A random but *valid* per-processor emission program: a list of
    op descriptors interpreted by ``emit`` below."""
    n_ops = draw(st.integers(1, max_ops))
    ops = []
    held: list[int] = []
    n_locks = draw(st.integers(1, 4))
    for _ in range(n_ops):
        choices = ["block", "read", "write"]
        if len(held) < n_locks:
            choices.append("lock")
        if held:
            choices.append("unlock")
        kind = draw(st.sampled_from(choices))
        if kind == "block":
            ops.append(("block", draw(st.integers(1, 30)), draw(st.integers(1, 100))))
        elif kind in ("read", "write"):
            ops.append(
                (
                    kind,
                    draw(st.integers(0, 4000)),
                    draw(st.integers(1, 12)),
                    draw(st.booleans()),
                )
            )
        elif kind == "lock":
            # acquire in ascending id order only: a global lock ordering
            # keeps randomly generated multi-processor programs
            # deadlock-free (arbitrary orders can and do deadlock, which
            # the simulator detects -- see the deadlock-detection test)
            floor = max(held) + 1 if held else 0
            free = [l for l in range(floor, n_locks) if l not in held]
            if not free:
                continue
            lid = draw(st.sampled_from(free))
            held.append(lid)
            ops.append(("lock", lid))
        else:
            lid = draw(st.sampled_from(held))
            held.remove(lid)
            ops.append(("unlock", lid))
    for lid in reversed(held):
        ops.append(("unlock", lid))
    return ops


def emit(ops, builder: TraceBuilder, layout: AddressLayout, proc: int, shared_base, code, locks):
    for op in ops:
        if op[0] == "block":
            builder.block(op[1], op[2], code)
        elif op[0] in ("read", "write"):
            _, off, reps, shared = op
            addr = shared_base + off * 4 if shared else (0x8000_0000 + proc * 0x0100_0000 + off * 4)
            getattr(builder, op[0])(addr, reps)
        elif op[0] == "lock":
            builder.lock(op[1], locks[op[1]])
        else:
            builder.unlock(op[1], locks[op[1]])


def build_traceset(programs):
    n = len(programs)
    layout = AddressLayout(n)
    code = layout.alloc_code(256)
    shared_base = layout.alloc_shared(32768)
    locks = [layout.alloc_lock() for _ in range(4)]
    traces = []
    for p, ops in enumerate(programs):
        b = TraceBuilder(p, program="prop")
        emit(ops, b, layout, p, shared_base, code, locks)
        traces.append(b.finish())
    return TraceSet(traces, layout, program="prop")


class TestTraceProperties:
    @given(trace_programs())
    @settings(max_examples=60, deadline=None)
    def test_builder_output_always_validates(self, ops):
        ts = build_traceset([ops])
        validate_trace(ts[0])

    @given(st.lists(trace_programs(max_ops=25), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_tracesets_validate_cross_processor(self, programs):
        validate_traceset(build_traceset(programs))

    @given(trace_programs())
    @settings(max_examples=40, deadline=None)
    def test_encode_roundtrip_is_lossless(self, ops):
        ts = build_traceset([ops])
        ts2 = loads_traceset(dumps_traceset(ts))
        assert np.array_equal(ts[0].records, ts2[0].records)
        assert ts2.program == ts.program

    @given(trace_programs())
    @settings(max_examples=60, deadline=None)
    def test_stats_invariants(self, ops):
        ts = build_traceset([ops])
        s = compute_trace_stats(ts[0])
        assert 0 <= s.shared_refs <= s.data_refs <= s.all_refs
        assert s.nested_locks <= s.lock_pairs
        assert s.total_held <= s.work_cycles
        assert 0 <= s.pct_time_held <= 100
        if s.lock_pairs == 0:
            assert s.avg_held == 0
        else:
            assert s.avg_held >= 0
        # total held cannot exceed the sum of individual holds
        assert s.total_held <= s.avg_held * s.lock_pairs + 1e-9

    @given(trace_programs(max_ops=30))
    @settings(max_examples=30, deadline=None)
    def test_stats_are_deterministic(self, ops):
        a = compute_trace_stats(build_traceset([ops])[0])
        b = compute_trace_stats(build_traceset([ops])[0])
        assert a == b


# ----------------------------------------------------------------------
# critical_sections vs a reference walker
# ----------------------------------------------------------------------
def reference_sections(rows):
    """Walk ``(kind, arg, cycles)`` rows once with a held-lock dict.
    Returns ``(sections, None)``, or ``(None, first bad record)``."""
    held, sections, pos = {}, [], 0  # held: lock -> (acquire, start, depth)
    for i, (kind, arg, cycles) in enumerate(rows):
        if kind == LOCK:
            if arg in held:
                return None, i
            held[arg] = (i, pos, len(held))
        elif kind == UNLOCK:
            if arg not in held:
                return None, i
            acquire, start, depth = held.pop(arg)
            sections.append((arg, acquire, i, start, pos, depth))
        elif kind == BARRIER and held:
            return None, i
        pos += cycles
    if held:
        return None, min(acquire for acquire, _, _ in held.values())
    return sorted(sections, key=lambda s: s[1]), None


def sync_trace(rows):
    """A trace of ``(kind, arg, cycles)`` rows with valid addresses."""
    records = np.zeros(len(rows), dtype=RECORD_DTYPE)
    for i, (kind, arg, cycles) in enumerate(rows):
        addr = {IBLOCK: CODE_BASE, BARRIER: 0}.get(kind, LOCK_BASE + 16 * arg)
        records[i] = (kind, addr, arg, cycles)
    return Trace(records, proc=0)


@st.composite
def well_formed_sync(draw):
    """Lock discipline kept: any held lock may be released next, so
    nesting, hand-over-hand and non-LIFO release all occur."""
    n_locks = draw(st.integers(1, 4))
    held: list[int] = []
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        ops = ["block"] + (["barrier"] if not held else [])
        ops += ["lock"] if len(held) < n_locks else []
        ops += ["unlock"] if held else []
        op = draw(st.sampled_from(ops))
        if op == "block":
            rows.append((IBLOCK, 1, draw(st.integers(1, 50))))
        elif op == "barrier":
            rows.append((BARRIER, draw(st.integers(0, 2)), 0))
        elif op == "lock":
            lid = draw(st.sampled_from([l for l in range(n_locks) if l not in held]))
            held.append(lid)
            rows.append((LOCK, lid, 0))
        else:
            lid = draw(st.sampled_from(held))
            held.remove(lid)
            rows.append((UNLOCK, lid, 0))
    for lid in draw(st.permutations(held)):
        rows.append((UNLOCK, lid, 0))
    return rows


@st.composite
def ill_formed_sync(draw):
    """A well-formed sequence with records inserted and deleted at
    random: re-acquires, unheld releases, dangling holds and barriers
    inside critical sections."""
    rows = draw(well_formed_sync())
    for _ in range(draw(st.integers(1, 3))):
        if rows and draw(st.booleans()):
            del rows[draw(st.integers(0, len(rows) - 1))]
        else:
            kind = draw(st.sampled_from([LOCK, UNLOCK, BARRIER]))
            rows.insert(draw(st.integers(0, len(rows))), (kind, draw(st.integers(0, 4)), 0))
    return rows


class TestCriticalSectionIndex:
    @given(st.one_of(well_formed_sync(), ill_formed_sync()))
    @settings(max_examples=300, deadline=None)
    @example([(LOCK, 0, 0), (LOCK, 1, 0), (UNLOCK, 0, 0), (UNLOCK, 1, 0)])  # hand-over-hand
    @example([(LOCK, 0, 0), (LOCK, 1, 0), (LOCK, 2, 0), (UNLOCK, 1, 0),
              (UNLOCK, 2, 0), (UNLOCK, 0, 0)])  # non-LIFO release
    @example([(LOCK, 0, 0), (IBLOCK, 1, 5), (LOCK, 0, 0)])  # re-acquire
    @example([(LOCK, 1, 0), (UNLOCK, 1, 0), (UNLOCK, 1, 0)])  # unheld release
    @example([(LOCK, 2, 0), (LOCK, 1, 0), (LOCK, 0, 0), (UNLOCK, 1, 0)])  # dangling holds
    @example([(LOCK, 0, 0), (BARRIER, 0, 0), (UNLOCK, 0, 0)])  # barrier while holding
    def test_index_matches_reference_walker(self, rows):
        trace = sync_trace(rows)
        expected, bad = reference_sections(rows)
        if bad is None:
            assert critical_sections(trace).tolist() == expected
            validate_trace(trace)
            return
        with pytest.raises(TraceValidationError) as err:
            critical_sections(trace)
        assert re.match(r"record (\d+):", str(err.value)).group(1) == str(bad)
        with pytest.raises(TraceValidationError, match=re.escape(str(err.value))):
            validate_trace(trace)
