"""Differential verification of bulk trace emission.

The bulk builder APIs (``extend``/``append_records``/``append_columns``
and the workload rewrites on top of them) claim to be *byte-neutral*:
for every registry program, generating with ``bulk=True`` must produce a
traceset that serializes byte-for-byte identically to the scalar
record-by-record reference path (``bulk=False``).  This module checks
that claim exhaustively over the registry, and property-tests the
chunked builder itself: random valid emission programs split arbitrarily
across the scalar and bulk APIs must build identical record arrays, and
every structural error must be raised at ``finish()`` whichever API
emitted the bad record.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.builder import TraceBuildError, TraceBuilder
from repro.trace.encode import dumps_traceset, loads_traceset
from repro.trace.layout import AddressLayout
from repro.trace.records import (
    IBLOCK,
    LOCK,
    READ,
    RECORD_DTYPE,
    UNLOCK,
    WRITE,
    TraceSet,
)
from repro.workloads.registry import WORKLOADS, generate_trace

#: two generation parameter points, both off the library default so the
#: suite exercises the scale/seed plumbing too
PARAMS = [(0.25, 7), (0.4, 1991)]


class TestRegistryByteIdentity:
    """bulk=True output must equal the scalar reference, byte for byte."""

    @pytest.mark.parametrize("program", sorted(WORKLOADS))
    @pytest.mark.parametrize("scale,seed", PARAMS, ids=lambda p: str(p))
    def test_bulk_equals_scalar(self, program, scale, seed):
        bulk = generate_trace(program, scale=scale, seed=seed, bulk=True)
        scalar = generate_trace(program, scale=scale, seed=seed, bulk=False)
        assert dumps_traceset(bulk) == dumps_traceset(scalar)


# ----------------------------------------------------------------------
# Property tests: the chunked builder vs the scalar reference
# ----------------------------------------------------------------------
@st.composite
def emission_programs(draw, max_rows=80):
    """A valid row program: (kind, addr, arg, cycles) tuples with lock
    discipline maintained, plus segment boundaries for bulk grouping."""
    n_locks = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, max_rows))
    rows = []
    held: list[int] = []
    for _ in range(n_rows):
        choices = ["block", "read", "write"]
        if len(held) < n_locks:
            choices.append("lock")
        if held:
            choices.append("unlock")
        op = draw(st.sampled_from(choices))
        if op == "block":
            rows.append(
                ("block", draw(st.integers(1, 40)), draw(st.integers(1, 120)))
            )
        elif op in ("read", "write"):
            rows.append(
                (op, draw(st.integers(0, 2000)), draw(st.integers(1, 8)),
                 draw(st.booleans()))
            )
        elif op == "lock":
            free = [l for l in range(n_locks) if l not in held]
            lid = draw(st.sampled_from(free))
            held.append(lid)
            rows.append(("lock", lid))
        else:
            lid = draw(st.sampled_from(held))
            held.remove(lid)
            rows.append(("unlock", lid))
    for lid in reversed(held):
        rows.append(("unlock", lid))
    # cut the program into segments, each emitted through one API
    cuts = draw(
        st.lists(st.integers(0, len(rows)), max_size=6).map(sorted)
    )
    bounds = [0] + cuts + [len(rows)]
    segments = [
        (draw(st.sampled_from(["scalar", "extend", "records", "columns"])), a, b)
        for a, b in zip(bounds, bounds[1:])
        if a < b
    ]
    return rows, segments


def _resolve(rows, layout, proc, code, shared, locks):
    """Turn op tuples into concrete (kind, addr, arg, cycles) rows."""
    out = []
    for op in rows:
        if op[0] == "block":
            out.append((IBLOCK, code, op[1], op[2]))
        elif op[0] in ("read", "write"):
            _, off, reps, is_shared = op
            addr = (
                shared + off * 4
                if is_shared
                else 0x8000_0000 + proc * 0x0100_0000 + off * 4
            )
            out.append((READ if op[0] == "read" else WRITE, addr, reps, 0))
        elif op[0] == "lock":
            out.append((LOCK, locks[op[1]], op[1], 0))
        else:
            out.append((UNLOCK, locks[op[1]], op[1], 0))
    return out


def _build(rows, segments, how):
    layout = AddressLayout(1)
    code = layout.alloc_code(256)
    shared = layout.alloc_shared(16384)
    locks = [layout.alloc_lock() for _ in range(3)]
    b = TraceBuilder(0, program="prop")
    concrete = _resolve(rows, layout, 0, code, shared, locks)
    if how == "scalar":
        segments = [("scalar", 0, len(concrete))]
    for api, lo, hi in segments:
        seg = concrete[lo:hi]
        if api == "scalar":
            for k, a, g, c in seg:
                if k == IBLOCK:
                    b.block(g, c, a)
                elif k == READ:
                    b.read(a, g)
                elif k == WRITE:
                    b.write(a, g)
                elif k == LOCK:
                    b.lock(g, a)
                else:
                    b.unlock(g, a)
        elif api == "extend":
            b.extend(*(list(col) for col in zip(*seg)))
        elif api == "records":
            b.append_records(np.array(seg, dtype=RECORD_DTYPE))
        else:
            kinds, addrs, args, cycs = (np.array(c) for c in zip(*seg))
            b.append_columns(kinds, addrs, args, cycs)
    trace = b.finish()
    return trace, layout


class TestChunkedBuilderProperties:
    @given(emission_programs())
    @settings(max_examples=60, deadline=None)
    def test_bulk_segmentation_is_byte_neutral(self, prog):
        """Any segmentation of a valid program across the four emission
        APIs builds the same records as the scalar reference."""
        rows, segments = prog
        bulk, _ = _build(rows, segments, "mixed")
        scalar, _ = _build(rows, segments, "scalar")
        assert np.array_equal(bulk.records, scalar.records)

    @given(emission_programs(max_rows=40))
    @settings(max_examples=30, deadline=None)
    def test_bulk_output_roundtrips_through_encode(self, prog):
        rows, segments = prog
        trace, layout = _build(rows, segments, "mixed")
        ts = TraceSet([trace], layout, program="prop")
        ts2 = loads_traceset(dumps_traceset(ts))
        assert np.array_equal(ts[0].records, ts2[0].records)

    @given(
        st.integers(1, 50),
        st.integers(1, 6),
        st.integers(4, 64),
        st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_vector_helpers_match_scalar_loops(self, n, reps, stride, blocks):
        """blocks()/refs()/strided_refs() equal their scalar loops."""
        layout = AddressLayout(1)
        code = layout.alloc_code(1024)
        shared = layout.alloc_shared(n * stride + 64)

        fast = TraceBuilder(0, program="prop")
        fast.blocks(
            np.full(blocks, 7), np.full(blocks, 21), np.full(blocks, code)
        )
        fast.refs(READ, shared + np.arange(n) * 4, reps)
        fast.strided_refs(WRITE, shared, n, stride, reps)

        slow = TraceBuilder(0, program="prop")
        for _ in range(blocks):
            slow.block(7, 21, code)
        for i in range(n):
            slow.read(shared + i * 4, reps)
        for i in range(n):
            slow.write(shared + i * stride, reps)

        assert np.array_equal(fast.finish().records, slow.finish().records)


# ----------------------------------------------------------------------
# Error semantics: bulk paths must not weaken the scalar guarantees
# ----------------------------------------------------------------------
def _layout():
    layout = AddressLayout(1)
    return layout, layout.alloc_code(64), layout.alloc_shared(4096), layout.alloc_lock()


class TestBulkErrorSemantics:
    """A bad record emitted through any bulk API is caught at finish()."""

    def test_checked_chunk_rejects_bad_code_address(self):
        _, _, shared, _ = _layout()
        b = TraceBuilder(0)
        b.append_records(np.array([(IBLOCK, shared, 4, 12)], dtype=RECORD_DTYPE))
        with pytest.raises(TraceBuildError, match="record 0: IBLOCK address"):
            b.finish()

    def test_checked_chunk_rejects_zero_instruction_block(self):
        _, code, _, _ = _layout()
        b = TraceBuilder(0)
        b.append_columns(IBLOCK, code, 0, 12)
        with pytest.raises(TraceBuildError, match="zero instructions"):
            b.finish()

    def test_checked_chunk_rejects_zero_reps(self):
        _, _, shared, _ = _layout()
        b = TraceBuilder(0)
        b.refs(READ, shared, 0)
        with pytest.raises(TraceBuildError, match="zero repetitions"):
            b.finish()

    def test_checked_chunk_rejects_unheld_unlock(self):
        _, _, _, lock = _layout()
        b = TraceBuilder(0)
        b.append_records(np.array([(UNLOCK, lock, 0, 0)], dtype=RECORD_DTYPE))
        with pytest.raises(TraceBuildError, match="record 0: lock 0 released while not held"):
            b.finish()

    def test_checked_chunk_rejects_reacquire(self):
        _, _, _, lock = _layout()
        b = TraceBuilder(0)
        b.lock(0, lock)
        b.append_records(np.array([(LOCK, lock, 0, 0)], dtype=RECORD_DTYPE))
        with pytest.raises(TraceBuildError, match="record 1: lock 0 re-acquired"):
            b.finish()

    def test_finish_rejects_held_locks_from_bulk(self):
        _, _, _, lock = _layout()
        b = TraceBuilder(0)
        b.extend([LOCK], [lock], [0], [0])
        with pytest.raises(TraceBuildError, match="holding locks"):
            b.finish()

    def test_unchecked_bulk_defers_to_finish_validator(self):
        """An invalid record emitted through extend() is caught at
        finish()."""
        _, code, _, _ = _layout()
        b = TraceBuilder(0)
        # a data reference into the code region: structurally invalid
        b.extend([READ], [code], [1], [0])
        with pytest.raises(TraceBuildError, match="failed validation"):
            b.finish()

    def test_unchecked_append_records_defers_to_finish_validator(self):
        layout, _, shared, _ = _layout()
        b = TraceBuilder(0)
        b.block(4, 12, layout.alloc_code(16))
        b.append_records(np.array([(IBLOCK, shared, 4, 12)], dtype=RECORD_DTYPE))
        with pytest.raises(TraceBuildError, match="record 1: IBLOCK address"):
            b.finish()

    def test_valid_unchecked_bulk_passes_finish(self):
        _, code, shared, lock = _layout()
        b = TraceBuilder(0)
        b.extend(
            [LOCK, IBLOCK, READ, UNLOCK],
            [lock, code, shared, lock],
            [0, 5, 1, 0],
            [0, 15, 0, 0],
        )
        trace = b.finish()
        assert len(trace.records) == 4
