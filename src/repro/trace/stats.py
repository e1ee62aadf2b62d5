"""Vectorized per-trace summary statistics.

These are the "ideal" statistics of the paper's §2.3: what the program
would do with no cache misses, no bus, and no lock contention.  They are
computed straight from the trace with numpy reductions, the lock
figures from the rows of :func:`repro.trace.validate.critical_sections`,
and feed Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import PRIVATE_BASE, SHARED_BASE
from .records import IBLOCK, READ, WRITE, Trace
from .validate import critical_sections

__all__ = ["TraceStats", "compute_trace_stats"]


@dataclass(frozen=True)
class TraceStats:
    """Ideal statistics of a single processor's trace (Tables 1 and 2)."""

    proc: int
    work_cycles: int
    all_refs: int
    data_refs: int
    shared_refs: int
    lock_pairs: int
    nested_locks: int
    avg_held: float  # mean ideal lock-held duration (cycles)
    total_held: int  # length of the union of held intervals (cycles)

    @property
    def pct_time_held(self) -> float:
        """Percent of ideal execution time spent holding at least one lock."""
        if self.work_cycles == 0:
            return 0.0
        return 100.0 * self.total_held / self.work_cycles


def _union_length(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by a set of possibly-overlapping intervals."""
    if not intervals:
        return 0
    intervals.sort()
    total = 0
    cur_start, cur_end = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    total += cur_end - cur_start
    return total


def compute_trace_stats(trace: Trace) -> TraceStats:
    """Compute the full ideal-statistics record for one processor."""
    rec = trace.records
    kinds = rec["kind"]
    args = rec["arg"].astype(np.int64)
    addrs = rec["addr"]

    iblock = kinds == IBLOCK
    data = (kinds == READ) | (kinds == WRITE)

    work_cycles = int(rec["cycles"].astype(np.int64).sum())
    ifetches = int(args[iblock].sum())
    data_refs = int(args[data].sum())
    shared = data & (addrs >= SHARED_BASE) & (addrs < PRIVATE_BASE)
    shared_refs = int(args[shared].sum())

    cs = critical_sections(trace)
    lock_pairs = len(cs)
    nested = int(np.count_nonzero(cs["depth"]))
    avg_held = float(np.mean(cs["end"] - cs["start"])) if lock_pairs else 0.0
    total_held = _union_length(list(zip(cs["start"].tolist(), cs["end"].tolist())))

    return TraceStats(
        proc=trace.proc,
        work_cycles=work_cycles,
        all_refs=ifetches + data_refs,
        data_refs=data_refs,
        shared_refs=shared_refs,
        lock_pairs=lock_pairs,
        nested_locks=nested,
        avg_held=avg_held,
        total_held=total_held,
    )
