"""Run metrics: per-processor stall accounting and the RunResult record.

The paper's reporting conventions (§3):

* a processor's **utilization** is its work (ideal) cycles divided by
  the total cycles until *that processor* finished its trace; the table
  reports the average over processors;
* **stall causes** are the percentage of stall cycles attributable to
  cache misses vs. waiting for locks (they need not sum to 100: buffer
  pressure and weak-ordering drains are small third categories);
* **run-time** is the completion time of the last processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sync.stats import LockStats

__all__ = ["ProcMetrics", "RunResult"]


class ProcMetrics:
    """Mutable per-processor accounting, owned by the Processor."""

    __slots__ = (
        "proc",
        "work_cycles",
        "stall_miss",
        "stall_lock",
        "stall_drain",
        "stall_buffer",
        "completion_time",
        "refs_processed",
        "drains",
        "drains_nonempty",
    )

    def __init__(self, proc: int) -> None:
        self.proc = proc
        self.work_cycles = 0
        self.stall_miss = 0
        self.stall_lock = 0
        self.stall_drain = 0
        self.stall_buffer = 0
        self.completion_time = 0
        self.refs_processed = 0
        self.drains = 0
        self.drains_nonempty = 0

    @property
    def total_stall(self) -> int:
        return self.stall_miss + self.stall_lock + self.stall_drain + self.stall_buffer

    @property
    def utilization(self) -> float:
        if self.completion_time <= 0:
            return 1.0
        return self.work_cycles / self.completion_time

    # -- serialization support (repro.runner ships results across
    # -- process boundaries and persists them in the result cache) --------
    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, d: dict) -> "ProcMetrics":
        m = cls(int(d["proc"]))
        for name in cls.__slots__:
            setattr(m, name, int(d[name]))
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcMetrics):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    __hash__ = None  # mutable accounting record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcMetrics(proc={self.proc}, work={self.work_cycles}, "
            f"stall={self.total_stall}, done={self.completion_time})"
        )


@dataclass(frozen=True)
class RunResult:
    """Everything a simulation run produces; feeds every table."""

    program: str
    n_procs: int
    lock_scheme: str
    consistency: str
    run_time: int
    proc_metrics: tuple
    lock_stats: LockStats
    bus_busy_cycles: int
    bus_op_counts: dict
    # cache aggregates, summed over processors
    read_hits: int
    read_misses: int
    write_hits: int
    write_misses: int
    ifetch_hits: int
    ifetch_misses: int
    writebacks: int
    c2c_supplied: int
    invalidations_received: int
    buffer_max_occupancy: int
    meta: dict = field(default_factory=dict)
    #: run introspection that must never feed a table, a golden file or
    #: a differential comparison: excluded from equality and from
    #: serialization (repro.runner.serialize).  The simulator records
    #: ``engine_events``, the run's dispatched engine event count;
    #: tracing tools read the field on every run.
    diagnostics: dict = field(default_factory=dict, compare=False)

    # -- Table 3/5/7 columns ----------------------------------------------------
    @property
    def avg_utilization(self) -> float:
        ms = self.proc_metrics
        return sum(m.utilization for m in ms) / len(ms)

    @property
    def total_stall(self) -> int:
        return sum(m.total_stall for m in self.proc_metrics)

    @property
    def stall_pct_miss(self) -> float:
        tot = self.total_stall
        if tot == 0:
            return 0.0
        return 100.0 * sum(m.stall_miss for m in self.proc_metrics) / tot

    @property
    def stall_pct_lock(self) -> float:
        tot = self.total_stall
        if tot == 0:
            return 0.0
        return 100.0 * sum(m.stall_lock for m in self.proc_metrics) / tot

    @property
    def stall_pct_drain(self) -> float:
        tot = self.total_stall
        if tot == 0:
            return 0.0
        return 100.0 * sum(m.stall_drain for m in self.proc_metrics) / tot

    # -- Table 7 column -------------------------------------------------------
    @property
    def write_hit_ratio(self) -> float:
        tot = self.write_hits + self.write_misses
        return self.write_hits / tot if tot else 1.0

    @property
    def read_hit_ratio(self) -> float:
        tot = self.read_hits + self.read_misses
        return self.read_hits / tot if tot else 1.0

    @property
    def bus_utilization(self) -> float:
        return self.bus_busy_cycles / self.run_time if self.run_time else 0.0

    @property
    def total_work_cycles(self) -> int:
        return sum(m.work_cycles for m in self.proc_metrics)

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        ls = self.lock_stats
        return (
            f"{self.program}: {self.n_procs} procs, locks={self.lock_scheme}, "
            f"model={self.consistency}\n"
            f"  run-time {self.run_time:,} cycles, "
            f"utilization {100 * self.avg_utilization:.1f}%\n"
            f"  stalls: {self.stall_pct_miss:.1f}% cache miss, "
            f"{self.stall_pct_lock:.1f}% lock wait\n"
            f"  locks: {ls.acquisitions} acquisitions, {ls.transfers} transfers, "
            f"{ls.avg_waiters_at_transfer:.2f} waiters at transfer, "
            f"avg hold {ls.avg_hold:.0f} cycles\n"
            f"  bus utilization {100 * self.bus_utilization:.1f}%, "
            f"write hit ratio {100 * self.write_hit_ratio:.1f}%"
        )
