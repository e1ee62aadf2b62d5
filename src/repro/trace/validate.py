"""Structural validation of traces, and the critical-section index.

:func:`validate_trace` is the one place a trace's invariants are
checked: :meth:`TraceBuilder.finish` runs it on every generated trace,
:func:`~repro.trace.encode.load_traceset` on every trace file, and
:meth:`TraceCache.put_bytes` on every trace replicated from a peer.

:func:`critical_sections` is the one place LOCK and UNLOCK records are
paired.  The validator, the ideal statistics of :mod:`repro.trace.stats`
and the lock profiles and contention report of :mod:`repro.sync.predict`
all read its rows, so every lock consumer shares one definition of a
critical section and one set of pairing errors.

A *sync record* is a LOCK, UNLOCK or BARRIER record: the only records
that hand a processor to a lock or barrier manager.  :func:`sync_free`
certifies a traceset that holds none, from the same definition
:func:`critical_sections` walks.
"""

from __future__ import annotations

import numpy as np

from .layout import CODE_BASE, LOCK_BASE, PRIVATE_BASE, SHARED_BASE
from .records import BARRIER, IBLOCK, LOCK, READ, UNLOCK, WRITE, Trace, TraceSet

__all__ = [
    "CS_DTYPE",
    "TraceValidationError",
    "critical_sections",
    "sync_free",
    "validate_trace",
    "validate_traceset",
]

_VALID_KINDS = frozenset({IBLOCK, READ, WRITE, LOCK, UNLOCK, BARRIER})

#: one row of :func:`critical_sections`
CS_DTYPE = np.dtype(
    [
        ("lock", np.int64),  # lock id
        ("acquire", np.int64),  # record index of the LOCK
        ("release", np.int64),  # record index of its UNLOCK
        ("start", np.int64),  # ideal cycle of the LOCK record
        ("end", np.int64),  # ideal cycle of the UNLOCK record
        ("depth", np.int64),  # other locks held at the acquire
    ]
)


class TraceValidationError(ValueError):
    """A trace violates a structural invariant."""


def _is_sync(kinds: np.ndarray) -> np.ndarray:
    """Mask of the sync records (LOCK, UNLOCK, BARRIER) in ``kinds``."""
    return (kinds == LOCK) | (kinds == UNLOCK) | (kinds == BARRIER)


def sync_free(ts: TraceSet) -> bool:
    """True when no processor's trace in ``ts`` holds a sync record.

    A simulation reaches a lock manager only through a sync record
    (``Processor._begin_sync``) and the lock-kind bus operations the
    manager then issues, so a sync-free traceset simulates the same
    under every lock scheme.  Computed once per traceset and cached on
    it, like the runner's content digest.
    """
    cached = getattr(ts, "_sync_free", None)
    if cached is None:
        cached = not any(_is_sync(t.records["kind"]).any() for t in ts)
        ts._sync_free = cached
    return cached


def critical_sections(trace: Trace) -> np.ndarray:
    """Pair ``trace``'s LOCK and UNLOCK records into critical sections.

    Returns one :data:`CS_DTYPE` row per section, in acquire order.  A
    record's ideal cycle is the exclusive prefix sum of ``cycles``, so a
    section holds its lock for ``end - start`` ideal cycles.  Sections
    are intervals over the trace, not entries of a per-processor stack
    (Sulzmann, *Critical Sections Are Not Per-Thread*): nesting,
    hand-over-hand locking and non-LIFO release need no special case.

    Raises :class:`TraceValidationError` naming the first bad record in
    trace order when a lock is taken while already held, released while
    not held, or still held at the end of the trace, or when a barrier
    is reached while holding a lock.
    """
    rec = trace.records
    kinds = rec["kind"]
    idx = np.flatnonzero(_is_sync(kinds))
    rows: list[list[int]] = []  # [lock, acquire, release, depth], acquire order
    held: dict[int, list[int]] = {}  # lock id -> its open row
    args = rec["arg"][idx].tolist()
    for i, kind, arg in zip(idx.tolist(), kinds[idx].tolist(), args):
        if kind == LOCK:
            if arg in held:
                raise TraceValidationError(
                    f"record {i}: lock {arg} re-acquired while held"
                )
            held[arg] = row = [arg, i, i, len(held)]
            rows.append(row)
        elif kind == UNLOCK:
            if arg not in held:
                raise TraceValidationError(
                    f"record {i}: lock {arg} released while not held"
                )
            held.pop(arg)[2] = i
        elif held:
            raise TraceValidationError(
                f"record {i}: barrier {arg} reached while holding a lock"
            )
    if held:
        lid, i, _, _ = min(held.values(), key=lambda row: row[1])
        raise TraceValidationError(
            f"record {i}: lock {lid} never released; trace ends "
            f"holding locks {sorted(held)}"
        )
    out = np.empty(len(rows), dtype=CS_DTYPE)
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4)
    out["lock"], out["acquire"], out["release"], out["depth"] = cols.T
    cycles = rec["cycles"].astype(np.int64)
    pos = np.cumsum(cycles) - cycles
    out["start"] = pos[out["acquire"]]
    out["end"] = pos[out["release"]]
    return out


def validate_trace(trace: Trace) -> None:
    """Raise :class:`TraceValidationError` unless ``trace`` is well formed.

    Checks:

    * every record kind is known;
    * basic blocks have >= 1 instruction and >= 1 cycle; data records
      have ``reps >= 1``; non-IBLOCK records carry zero cycles;
    * IBLOCK addresses are code addresses; LOCK/UNLOCK addresses are lock
      addresses; data addresses are never code addresses;
    * each lock id maps to a single address;
    * lock and unlock records pair into critical sections with no
      barrier inside one (:func:`critical_sections`).
    """
    rec = trace.records
    kinds = rec["kind"]
    unknown = set(np.unique(kinds)) - _VALID_KINDS
    if unknown:
        raise TraceValidationError(f"unknown record kinds: {sorted(unknown)}")

    iblock = kinds == IBLOCK
    if np.any(rec["arg"][iblock] < 1):
        raise TraceValidationError("basic block with zero instructions")
    if np.any(rec["cycles"][iblock] < 1):
        raise TraceValidationError("basic block with zero cycles")
    if np.any(rec["cycles"][~iblock] != 0):
        raise TraceValidationError("non-IBLOCK record carries cycles")

    data = (kinds == READ) | (kinds == WRITE)
    if np.any(rec["arg"][data] < 1):
        raise TraceValidationError("data record with zero repetitions")

    addrs = rec["addr"].astype(np.int64)
    in_code = (addrs >= CODE_BASE) & (addrs < SHARED_BASE)
    bad = iblock & ~in_code
    if bad.any():
        i = int(np.argmax(bad))
        raise TraceValidationError(
            f"record {i}: IBLOCK address {addrs[i]:#x} outside code region"
        )
    bad = data & in_code
    if bad.any():
        i = int(np.argmax(bad))
        raise TraceValidationError(f"record {i}: data reference into code region")

    sync = (kinds == LOCK) | (kinds == UNLOCK)
    bad = sync & ((addrs < LOCK_BASE) | (addrs >= PRIVATE_BASE))
    if bad.any():
        i = int(np.argmax(bad))
        raise TraceValidationError(
            f"record {i}: lock {rec['arg'][i]} at non-lock address {addrs[i]:#x}"
        )
    ids = rec["arg"][sync]
    order = np.argsort(ids, kind="stable")
    ids, lock_addrs = ids[order], addrs[sync][order]
    clash = (ids[1:] == ids[:-1]) & (lock_addrs[1:] != lock_addrs[:-1])
    if clash.any():
        raise TraceValidationError(
            f"lock {ids[1:][np.argmax(clash)]} has two addresses"
        )

    critical_sections(trace)


def validate_traceset(ts: TraceSet) -> None:
    """Validate every per-processor trace plus cross-processor invariants.

    Cross-processor checks: processor indices are ``0..n-1`` exactly once;
    a lock id used by several processors must resolve to the same address
    on all of them; private references stay in the owning processor's
    region; barriers, if used, are reached by every processor the same
    number of times.
    """
    procs = sorted(t.proc for t in ts.traces)
    if procs != list(range(ts.n_procs)):
        raise TraceValidationError(f"processor indices not contiguous: {procs}")

    global_lock_addr: dict[int, int] = {}
    barrier_counts: list[dict[int, int]] = []
    for t in ts.traces:
        validate_trace(t)
        rec = t.records
        kinds = rec["kind"]
        sync_idx = np.flatnonzero((kinds == LOCK) | (kinds == UNLOCK))
        for lid, a in zip(
            rec["arg"][sync_idx].tolist(), rec["addr"][sync_idx].tolist()
        ):
            prev = global_lock_addr.setdefault(lid, a)
            if prev != a:
                raise TraceValidationError(
                    f"lock {lid} has address {prev:#x} on one processor "
                    f"and {a:#x} on proc {t.proc}"
                )
        data = (kinds == READ) | (kinds == WRITE)
        addrs = rec["addr"][data].astype(np.int64)
        priv = addrs[addrs >= 0x8000_0000]
        for a in np.unique(priv // 0x0100_0000):
            owner = int(a) - (0x8000_0000 // 0x0100_0000)
            if owner != t.proc:
                raise TraceValidationError(
                    f"proc {t.proc} references proc {owner}'s private region"
                )
        counts: dict[int, int] = {}
        for bid in rec["arg"][kinds == BARRIER].tolist():
            counts[bid] = counts.get(bid, 0) + 1
        barrier_counts.append(counts)

    if any(barrier_counts):
        first = barrier_counts[0]
        for p, counts in enumerate(barrier_counts[1:], start=1):
            if counts != first:
                raise TraceValidationError(
                    f"barrier arrival counts differ between proc 0 ({first}) "
                    f"and proc {p} ({counts}); barriers would deadlock"
                )
