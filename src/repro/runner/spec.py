"""Canonical description of one simulation job.

A :class:`JobSpec` pins down everything a simulation's outcome depends
on -- program, scale, seed, machine configuration, lock scheme (and its
kwargs), consistency model -- and nothing else.  Because every run is
deterministic in those inputs, a spec's :meth:`~JobSpec.cache_key` is a
true content address for its result: the same key always denotes the
same numbers, on any machine, in any process.

Two ways to name the trace:

* **by provenance** (the normal case): ``program``/``scale``/``seed``
  (plus an optional ``n_procs`` override) identify a regenerable
  :class:`~repro.trace.records.TraceSet`.  A pre-generated traceset may
  ride along in ``traceset`` so executors need not regenerate it, but it
  MUST be the canonical trace for those parameters -- it does not enter
  the cache key.
* **by content** (custom traces, e.g. :func:`repro.core.sweep.
  sweep_machine` families): leave ``program`` empty and attach the
  traceset; its SHA-256 content digest becomes part of the key instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..machine.config import MachineConfig
from ..machine.metrics import RunResult
from .serialize import machine_from_dict, machine_to_dict

if TYPE_CHECKING:  # annotations only: the trace layer loads numpy
    from ..trace.records import TraceSet

__all__ = ["CACHE_FORMAT", "JobSpec", "traceset_digest"]

#: bump to invalidate every previously cached result (e.g. after a
#: simulator change that alters the numbers for identical specs)
CACHE_FORMAT = 1


def traceset_digest(ts: TraceSet) -> str:
    """SHA-256 content digest of a traceset (records + identity)."""
    cached = getattr(ts, "_runner_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(ts.program.encode())
    h.update(str(ts.n_procs).encode())
    for t in ts:
        h.update(str(t.proc).encode())
        h.update(str(t.records.dtype).encode())
        h.update(t.records.tobytes())
    digest = h.hexdigest()
    try:
        ts._runner_digest = digest
    except AttributeError:  # pragma: no cover - slotted traceset variants
        pass
    return digest


@dataclass(frozen=True)
class JobSpec:
    """One simulation, canonically described.

    ``lock_kwargs`` may be passed as a dict; it is normalized to a
    sorted item tuple so specs stay hashable and their keys canonical.
    """

    program: str = ""
    scale: float = 1.0
    seed: int = 1991
    lock_scheme: str = "queuing"
    lock_kwargs: tuple = ()
    consistency: str = "sc"
    machine: MachineConfig | None = None
    n_procs: int | None = None
    max_events: int | None = None
    #: content digest of an attached non-regenerable traceset (filled
    #: automatically when ``program`` is empty)
    trace_digest: str = ""
    #: optional pre-generated trace; never serialized, not part of the
    #: cache key unless ``program`` is empty (see module docstring)
    traceset: TraceSet | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.lock_kwargs, dict):
            object.__setattr__(
                self, "lock_kwargs", tuple(sorted(self.lock_kwargs.items()))
            )
        else:
            object.__setattr__(self, "lock_kwargs", tuple(self.lock_kwargs))
        if not self.program:
            if self.traceset is None and not self.trace_digest:
                raise ValueError("need either a program name or a traceset")
            if self.traceset is not None and not self.trace_digest:
                object.__setattr__(
                    self, "trace_digest", traceset_digest(self.traceset)
                )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-ready description (the cache-key preimage)."""
        return {
            "format": CACHE_FORMAT,
            "program": self.program,
            "scale": self.scale,
            "seed": self.seed,
            "lock_scheme": self.lock_scheme,
            "lock_kwargs": [list(kv) for kv in self.lock_kwargs],
            "consistency": self.consistency,
            "machine": machine_to_dict(self.machine),
            "n_procs": self.n_procs,
            "max_events": self.max_events,
            "trace_digest": self.trace_digest,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        spec = cls(
            program=d.get("program", ""),
            scale=d.get("scale", 1.0),
            seed=d.get("seed", 1991),
            lock_scheme=d.get("lock_scheme", "queuing"),
            lock_kwargs=tuple(tuple(kv) for kv in d.get("lock_kwargs", ())),
            consistency=d.get("consistency", "sc"),
            machine=machine_from_dict(d.get("machine")),
            n_procs=d.get("n_procs"),
            max_events=d.get("max_events"),
            trace_digest=d.get("trace_digest", ""),
        )
        return spec

    def cache_key(self) -> str:
        """Stable content address for this job's result."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable job name for progress/manifest lines."""
        name = self.program or f"trace:{self.trace_digest[:8]}"
        return f"{name}/{self.lock_scheme}/{self.consistency}"

    def with_traceset(self, traceset: TraceSet) -> "JobSpec":
        return replace(self, traceset=traceset)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def resolve_traceset(self) -> TraceSet:
        if self.traceset is not None:
            return self.traceset
        if not self.program:
            raise ValueError(
                f"spec {self.label()} names a trace by content digest but no "
                "traceset is attached; content-addressed jobs cannot be "
                "regenerated from the spec alone"
            )
        from ..workloads.registry import generate_trace

        return generate_trace(
            self.program, scale=self.scale, seed=self.seed, n_procs=self.n_procs
        )

    def run(self, traceset: TraceSet | None = None) -> RunResult:
        """Execute the simulation this spec describes."""
        from ..consistency import get_model
        from ..machine.system import simulate
        from ..sync import get_lock_manager

        ts = traceset if traceset is not None else self.resolve_traceset()
        return simulate(
            ts,
            self.machine,
            get_lock_manager(self.lock_scheme, **dict(self.lock_kwargs)),
            get_model(self.consistency),
            max_events=self.max_events,
        )
