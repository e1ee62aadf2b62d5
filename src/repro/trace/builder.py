"""Incremental construction of per-processor traces.

Workload models drive one :class:`TraceBuilder` per logical processor.
Emission does no checking: :meth:`TraceBuilder.finish` runs
:func:`repro.trace.validate.validate_trace` over the completed trace,
so every structural invariant MPTrace post-processing guarantees
(lock/unlock pairs, addresses in known regions) is checked once, in
one place, whichever API emitted the records.

Two emission speeds
-------------------

* The **scalar API** (``block``/``read``/``write``/``lock``/``unlock``/
  ``barrier``) appends one record per call.  It is the reference path
  and the right tool for irregular, interleaved emission (coordinated
  work queues, lock handoffs).
* The **bulk API** (``append_records``/``append_columns``/``blocks``/
  ``refs``/``strided_refs``/``extend``) appends a whole run of records
  at once.  Records are kept as chunked ndarrays -- no Python object per
  record.

The two APIs interleave freely: scalar records are buffered and sealed
into a chunk whenever a bulk run arrives, and :meth:`finish`
concatenates all chunks into the final immutable record array.
"""

from __future__ import annotations

import numpy as np

from .records import (
    BARRIER,
    IBLOCK,
    LOCK,
    READ,
    RECORD_DTYPE,
    UNLOCK,
    WRITE,
    Trace,
)
from .validate import TraceValidationError, validate_trace

__all__ = ["TraceBuilder", "TraceBuildError"]


class TraceBuildError(ValueError):
    """A workload emitted a structurally invalid record sequence."""


class TraceBuilder:
    """Append-only builder for one processor's trace.

    Parameters
    ----------
    proc:
        Processor index.
    program:
        Program name stamped onto the resulting :class:`Trace`.
    """

    def __init__(self, proc: int, program: str = "") -> None:
        self.proc = proc
        self.program = program
        self._kind: list[int] = []
        self._addr: list[int] = []
        self._arg: list[int] = []
        self._cycles: list[int] = []
        #: sealed record chunks (RECORD_DTYPE arrays), in emission order
        self._chunks: list[np.ndarray] = []
        self._n_sealed = 0
        self._finished = False

    # -- emission ------------------------------------------------------------
    def _push(self, kind: int, addr: int, arg: int, cycles: int) -> None:
        if self._finished:
            raise TraceBuildError("builder already finished")
        self._kind.append(kind)
        self._addr.append(addr)
        self._arg.append(arg)
        self._cycles.append(cycles)

    def block(self, n_instr: int, cycles: int, code_addr: int) -> None:
        """Emit a basic block of ``n_instr`` instruction fetches taking
        ``cycles`` ideal execution cycles, starting at ``code_addr``."""
        self._push(IBLOCK, code_addr, n_instr, cycles)

    def read(self, addr: int, reps: int = 1) -> None:
        """Emit ``reps`` consecutive reads starting at ``addr``."""
        self._push(READ, addr, reps, 0)

    def write(self, addr: int, reps: int = 1) -> None:
        """Emit ``reps`` consecutive writes starting at ``addr``."""
        self._push(WRITE, addr, reps, 0)

    def lock(self, lock_id: int, lock_addr: int) -> None:
        """Emit a lock-acquire program point."""
        self._push(LOCK, lock_addr, lock_id, 0)

    def unlock(self, lock_id: int, lock_addr: int) -> None:
        """Emit a lock-release program point.

        Releases need not be LIFO with respect to acquires (hand-over-hand
        locking releases the outer lock first), but the processor must
        actually hold the lock it releases.
        """
        self._push(UNLOCK, lock_addr, lock_id, 0)

    def barrier(self, barrier_id: int) -> None:
        """Emit a barrier arrival (extension record)."""
        self._push(BARRIER, 0, barrier_id, 0)

    # -- bulk emission -------------------------------------------------------
    def _seal_pending(self) -> None:
        """Convert buffered scalar records into a sealed chunk."""
        n = len(self._kind)
        if not n:
            return
        chunk = np.empty(n, dtype=RECORD_DTYPE)
        chunk["kind"] = self._kind
        chunk["addr"] = self._addr
        chunk["arg"] = self._arg
        chunk["cycles"] = self._cycles
        self._kind.clear()
        self._addr.clear()
        self._arg.clear()
        self._cycles.clear()
        self._chunks.append(chunk)
        self._n_sealed += n

    def append_records(self, records: np.ndarray) -> None:
        """Append a run of pre-built records (a :data:`RECORD_DTYPE` array).

        The array is referenced, not copied -- callers reusing a cached
        chunk must never mutate it after appending.
        """
        if self._finished:
            raise TraceBuildError("builder already finished")
        if records.dtype != RECORD_DTYPE:
            records = np.asarray(records, dtype=RECORD_DTYPE)
        if records.ndim != 1:
            raise TraceBuildError("bulk records must be one-dimensional")
        if not len(records):
            return
        self._seal_pending()
        self._chunks.append(records)
        self._n_sealed += len(records)

    def append_columns(self, kind, addr, arg, cycles) -> None:
        """Append records given as four columns (arrays or scalars).

        Scalars broadcast against the longest column, so e.g.
        ``append_columns(READ, addr_array, 4, 0)`` emits one 4-rep read
        per address.
        """
        shape = np.broadcast_shapes(
            np.shape(kind), np.shape(addr), np.shape(arg), np.shape(cycles)
        )
        if len(shape) > 1:
            raise TraceBuildError("bulk columns must be one-dimensional")
        n = shape[0] if shape else 1
        records = np.empty(n, dtype=RECORD_DTYPE)
        records["kind"] = kind
        records["addr"] = addr
        records["arg"] = arg
        records["cycles"] = cycles
        self.append_records(records)

    def extend(self, kinds, addrs, args, cycles) -> None:
        """Append a run of records given as plain Python sequences.

        The cheap path for short irregular runs (a dozen records whose
        addresses were just computed): the rows land in the scalar
        buffer via ``list.extend`` with no ndarray round-trip.
        """
        if self._finished:
            raise TraceBuildError("builder already finished")
        if not (len(kinds) == len(addrs) == len(args) == len(cycles)):
            raise TraceBuildError("bulk columns must have equal lengths")
        self._kind.extend(kinds)
        self._addr.extend(addrs)
        self._arg.extend(args)
        self._cycles.extend(cycles)

    def blocks(self, n_instr, cycles, code_addr) -> None:
        """Bulk :meth:`block`: emit one basic block per element."""
        self.append_columns(IBLOCK, code_addr, n_instr, cycles)

    def refs(self, kind, addr, reps=1) -> None:
        """Bulk :meth:`read`/:meth:`write`: ``kind`` is READ or WRITE
        (scalar or per-element array)."""
        self.append_columns(kind, addr, reps, 0)

    def strided_refs(self, kind, start: int, count: int, stride: int, reps=1) -> None:
        """``count`` data references marching from ``start`` in steps of
        ``stride`` bytes (a sequential scan over an array of records)."""
        if count < 0:
            raise TraceBuildError("count must be >= 0")
        addr = np.uint64(start) + np.arange(count, dtype=np.uint64) * np.uint64(stride)
        self.append_columns(kind, addr, reps, 0)

    def __len__(self) -> int:
        return self._n_sealed + len(self._kind)

    # -- finalisation ------------------------------------------------------------
    def finish(self) -> Trace:
        """Produce the immutable Trace, validated.

        Raises :class:`TraceBuildError` wrapping the
        :class:`~repro.trace.validate.TraceValidationError` of the first
        invariant the emitted records break.
        """
        self._seal_pending()
        self._finished = True
        if not self._chunks:
            records = np.empty(0, dtype=RECORD_DTYPE)
        elif len(self._chunks) == 1:
            records = self._chunks[0]
        else:
            records = np.concatenate(self._chunks)
        trace = Trace(records, proc=self.proc, program=self.program)
        try:
            validate_trace(trace)
        except TraceValidationError as exc:
            raise TraceBuildError(
                f"proc {self.proc}: trace failed validation: {exc}"
            ) from exc
        return trace
