"""Workload modeling framework.

The paper's traces came from six real programs on a Sequent Symmetry;
we cannot rerun those binaries, so each benchmark is modeled as an
*executable program skeleton*: real control flow (tree builds, annealing
sweeps, partition loops, work queues) driven per logical processor, with
every basic block, data reference and lock operation emitted into an
MPTrace-like trace.  The skeletons are calibrated so the per-processor
*ideal statistics* (Table 1/2: reference counts and mix, lock pair
counts, nesting, hold times) land in the paper's regime at the default
scale.

Two execution styles are supported:

* **partitioned** workloads (no cross-worker coordination at generation
  time) simply run one worker function per processor to completion;
* **coordinated** workloads (work queues, pipelined phases) run workers
  as Python generators under a deterministic round-robin driver, so
  shared generation-time state (e.g. the quicksort range queue) is
  accessed in a reproducible interleaving.  Yield points model "where a
  real scheduler could preempt"; the emitted traces stay per-processor.

Scaling: every workload accepts a ``scale`` factor multiplying its
iteration counts.  ``scale=1.0`` is the library's default reproduction
scale, roughly 1/20th of the paper's trace lengths (the paper itself
reports that longer traces do not change the results; our scale ablation
checks the same).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..trace.builder import TraceBuilder
from ..trace.layout import AddressLayout
from ..trace.records import BARRIER, IBLOCK, LOCK, READ, UNLOCK, WRITE, TraceSet

__all__ = ["SharedLock", "ProcContext", "Workload", "run_coordinated"]


class SharedLock:
    """A named lock: id + dedicated cache line, shared by all processors.

    The id is derived from the lock word's address within the layout, so
    regenerating the same workload yields byte-identical traces.
    """

    __slots__ = ("lock_id", "addr", "name")

    def __init__(self, layout: AddressLayout, name: str = "") -> None:
        from ..trace.layout import LINE_SIZE, LOCK_BASE

        self.addr = layout.alloc_lock()
        self.lock_id = (self.addr - LOCK_BASE) // LINE_SIZE
        self.name = name or f"lock{self.lock_id}"
        layout.lock_names[self.lock_id] = self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedLock({self.name}, id={self.lock_id})"


class ProcContext:
    """Per-logical-processor emission context.

    ``step(site, n_instr, reads, writes)`` emits one basic block of
    ``n_instr`` instructions at the code address registered for ``site``
    (allocated on first use and shared across processors, so loop bodies
    hit in the instruction stream after warm-up), followed by its data
    references.  ``reads``/``writes`` are addresses or ``(addr, reps)``
    pairs using the trace's repetition encoding for sequential scans.

    ``cpi`` converts instruction counts into ideal cycles; the default
    is tuned so cycles-per-reference lands near the paper's ~2.3--2.4.
    """

    __slots__ = ("proc", "b", "layout", "rng", "cpi", "bulk", "_sites", "_held")

    def __init__(
        self,
        proc: int,
        builder: TraceBuilder,
        layout: AddressLayout,
        rng: np.random.Generator,
        sites: dict,
        cpi: float = 3.4,
        bulk: bool = True,
    ) -> None:
        self.proc = proc
        self.b = builder
        self.layout = layout
        self.rng = rng
        self.cpi = cpi
        #: bulk=False replays every run record-by-record through the scalar
        #: builder API -- the reference path the differential tests compare
        #: bulk emission against
        self.bulk = bulk
        self._sites = sites  # shared across contexts: site name -> code addr
        self._held: list[SharedLock] = []

    # -- code sites -------------------------------------------------------------
    def _site_addr(self, site: str, n_instr: int) -> int:
        addr = self._sites.get(site)
        if addr is None:
            addr = self.layout.alloc_code(4 * n_instr + 16)
            self._sites[site] = addr
        return addr

    def site(self, site: str, n_instr: int) -> int:
        """Code address for ``site`` (allocated on first use), for
        workloads that precompute bulk IBLOCK columns."""
        return self._site_addr(site, n_instr)

    def cycles_for(self, n_instr: int) -> int:
        """Ideal cycles for an ``n_instr``-instruction block under this
        context's cpi (the same formula :meth:`step` applies)."""
        return max(1, int(n_instr * self.cpi))

    # -- emission -----------------------------------------------------------------
    def step(
        self,
        site: str,
        n_instr: int,
        reads: Iterable = (),
        writes: Iterable = (),
    ) -> None:
        cycles = max(1, int(n_instr * self.cpi))
        self.b.block(n_instr, cycles, self._site_addr(site, n_instr))
        b = self.b
        for r in reads:
            if isinstance(r, tuple):
                b.read(r[0], r[1])
            else:
                b.read(r)
        for w in writes:
            if isinstance(w, tuple):
                b.write(w[0], w[1])
            else:
                b.write(w)

    def compute(self, site: str, n_instr: int) -> None:
        """A pure-compute basic block."""
        self.step(site, n_instr)

    # -- bulk emission ------------------------------------------------------------
    def emit_rows(self, kinds, addrs, args, cycles) -> None:
        """Emit a run of records given as equal-length Python sequences.

        In bulk mode the rows go straight into the builder's chunk
        buffer; otherwise they replay one-by-one through the scalar API.
        """
        if self.bulk:
            self.b.extend(kinds, addrs, args, cycles)
        else:
            self._replay(kinds, addrs, args, cycles)

    def emit_records(self, records: np.ndarray) -> None:
        """Emit a pre-built (possibly cached and reused) record chunk.

        The chunk is referenced, not copied -- callers must never mutate
        it after the first emit.
        """
        if self.bulk:
            self.b.append_records(records)
        else:
            self._replay(
                records["kind"].tolist(),
                records["addr"].tolist(),
                records["arg"].tolist(),
                records["cycles"].tolist(),
            )

    def emit_columns(self, kind, addr, arg, cycles) -> None:
        """Emit a run of records given as broadcastable columns
        (ndarrays or scalars)."""
        if self.bulk:
            self.b.append_columns(kind, addr, arg, cycles)
        else:
            cols = np.broadcast_arrays(kind, addr, arg, cycles)
            self._replay(*(np.atleast_1d(c).tolist() for c in cols))

    def _replay(self, kinds, addrs, args, cycles) -> None:
        b = self.b
        for k, a, g, c in zip(kinds, addrs, args, cycles):
            if k == IBLOCK:
                b.block(g, c, a)
            elif k == READ:
                b.read(a, g)
            elif k == WRITE:
                b.write(a, g)
            elif k == LOCK:
                b.lock(g, a)
            elif k == UNLOCK:
                b.unlock(g, a)
            elif k == BARRIER:
                b.barrier(g)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown record kind {k}")

    def lock(self, lk: SharedLock) -> None:
        self.b.lock(lk.lock_id, lk.addr)
        self._held.append(lk)

    def unlock(self, lk: SharedLock) -> None:
        self.b.unlock(lk.lock_id, lk.addr)
        self._held.remove(lk)

    def barrier(self, barrier_id: int) -> None:
        self.b.barrier(barrier_id)

    @property
    def holding(self) -> tuple[SharedLock, ...]:
        return tuple(self._held)


def run_coordinated(workers: Sequence[Iterator]) -> None:
    """Round-robin driver for coordinated workloads.

    Advances each worker generator one yield at a time until all are
    exhausted.  Deterministic given deterministic workers.
    """
    live = list(workers)
    while live:
        nxt = []
        for w in live:
            try:
                next(w)
            except StopIteration:
                continue
            nxt.append(w)
        live = nxt


class Workload(ABC):
    """Base class for the six benchmark models (and user workloads).

    Subclasses define ``name``, ``default_procs``, ``uses_presto`` and
    implement :meth:`build`, which drives the per-processor contexts.
    """

    name: str = "abstract"
    default_procs: int = 12
    uses_presto: bool = False
    #: cycles-per-instruction used for the contexts (per-workload tunable)
    cpi: float = 3.4

    def __init__(self, scale: float = 1.0, seed: int = 1991) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed

    # -- generation ---------------------------------------------------------------
    def generate(self, n_procs: int | None = None, bulk: bool = True) -> TraceSet:
        """Run the model and produce the multi-processor trace.

        ``bulk=False`` forces record-by-record emission through the
        scalar builder API; the result is byte-identical to bulk mode
        (enforced by tests/test_tracegen_differential.py), just slower.
        Every processor's trace is validated as its builder finishes.
        """
        n = n_procs or self.default_procs
        layout = AddressLayout(n)
        rng = np.random.default_rng(self.seed)
        builders = [TraceBuilder(p, program=self.name) for p in range(n)]
        sites: dict = {}
        ctxs = [
            ProcContext(p, builders[p], layout, rng, sites, cpi=self.cpi, bulk=bulk)
            for p in range(n)
        ]
        self.build(ctxs, layout, rng)
        traces = [b.finish() for b in builders]
        return TraceSet(
            traces,
            layout,
            program=self.name,
            meta={
                "scale": self.scale,
                "seed": self.seed,
                "uses_presto": self.uses_presto,
            },
        )

    @abstractmethod
    def build(
        self,
        ctxs: list[ProcContext],
        layout: AddressLayout,
        rng: np.random.Generator,
    ) -> None:
        """Drive the contexts to emit every processor's trace."""

    # -- helpers -----------------------------------------------------------------
    def scaled(self, count: int, minimum: int = 1) -> int:
        """Scale an iteration count, with a floor."""
        return max(minimum, int(round(count * self.scale)))
