"""Machine configuration.

The default values reproduce the paper's model architecture (§2.2): a
shared-bus multiprocessor patterned on the Sequent Symmetry Model B with
per-processor 64 KB two-way set-associative write-back caches (16-byte
lines, LRU, write-allocate, Illinois coherence), a 64-bit split-
transaction bus with round-robin arbitration, a four-entry cache--bus
buffer per processor, and a memory module with a three-cycle access time
and two-entry input and output buffers.  With these numbers an
uncontended cache miss stalls the processor for six cycles: one to send
the request, three in memory, two to return the 16-byte line over the
8-byte bus -- exactly the paper's accounting.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field, replace

__all__ = ["CacheConfig", "BusConfig", "MemoryConfig", "MachineConfig"]


@dataclass(frozen=True)
class CacheConfig:
    """Per-processor cache geometry (paper defaults: 64 KB, 2-way, 16 B).

    ``write_policy`` selects write-back (the paper's machine) or
    write-through (no-allocate, every write a word-sized bus/memory
    transaction).  The write-through mode exists to test the paper's
    §4.2 conjecture that weak ordering's benefit "would be greater ...
    [if] the number of writes to memory increased (as in the case of a
    write-through cache)".
    """

    size_bytes: int = 64 * 1024
    line_bytes: int = 16
    assoc: int = 2
    write_policy: str = "writeback"

    def __post_init__(self) -> None:
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError("size must be divisible by line_bytes * assoc")
        if self.n_sets & (self.n_sets - 1):
            raise ValueError("number of sets must be a power of two")
        if self.write_policy not in ("writeback", "writethrough"):
            raise ValueError("write_policy must be 'writeback' or 'writethrough'")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.assoc

    @property
    def offset_bits(self) -> int:
        return self.line_bytes.bit_length() - 1


@dataclass(frozen=True)
class BusConfig:
    """Split-transaction bus parameters.

    ``width_bytes`` is the data-path width; a cache line takes
    ``line_bytes / width_bytes`` data cycles.  ``addr_cycles`` is the cost
    of the address/request phase, also used for invalidation signals.
    """

    width_bytes: int = 8
    addr_cycles: int = 1

    def data_cycles(self, line_bytes: int) -> int:
        return -(-line_bytes // self.width_bytes)  # ceil division


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory module parameters (3-cycle access, 2-entry buffers)."""

    access_cycles: int = 3
    input_buffer: int = 2
    output_buffer: int = 2


@dataclass(frozen=True)
class MachineConfig:
    """Top-level machine description.

    Parameters
    ----------
    n_procs:
        Number of active processors (the paper's runs use 9, 10 or 12).
    cachebus_buffer_depth:
        Depth of the per-processor cache--bus interface buffer.  The paper
        sets this to four "in anticipation of the larger buffer
        requirements of a weakly consistent architecture" and then
        questions the choice in §4.2; the buffer-depth ablation sweeps it.
    batch_records:
        Simulation fidelity knob: how many trace records a processor may
        interpret between interactions with the global event queue when
        it is not stalling.  Smaller values interleave snoop traffic more
        finely at the cost of simulation speed; 1 is exact
        record-by-record interleaving.
    bus_fast_path:
        Enable the contended-path fast path through the bus/miss/lock
        machinery: O(1) bitmask round-robin arbitration, fused
        grant->fire->release dispatch, and preallocated (closure-free)
        completion trampolines in the bus service and memory module.
        **Metric-neutral by construction** -- the reference arbiter and
        closure-based completion chain are kept verbatim as the
        ``False`` path and the differential harness proves both
        byte-identical on every suite cell -- so the flag is purely an
        escape hatch for debugging and for measuring the contended fast
        path itself (see docs/performance.md).  Trace records always
        retire through the per-record interpreter
        (:mod:`repro.machine.processor`).
    fast_path, segment_kernel, spin_kernel:
        Retired knobs of the removed window fast path and collapse
        kernels.  Accepted only as ``False`` -- the per-record
        interpreter they selected is now the only one -- and stored
        nowhere; any other value raises :class:`ValueError`.  The
        benchmark's reference pass (``perfbench/cold.py --reference``)
        still names them; remove this shim together with those names at
        the next change to the benchmark.
    """

    n_procs: int = 12
    cache: CacheConfig = field(default_factory=CacheConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    cachebus_buffer_depth: int = 4
    batch_records: int = 32
    bus_fast_path: bool = True
    #: snooping coherence protocol: "illinois" (the paper's
    #: write-invalidate MESI) or "update" (Firefly-style write-update;
    #: extension -- see repro.machine.coherence)
    coherence: str = "illinois"
    #: attach a raise-mode runtime invariant auditor to the run (the
    #: "simulator sanitizer", see repro.audit; CLI --audit).  Auditing is
    #: observation-only: results are byte-identical with it on or off.
    audit: bool = False
    fast_path: InitVar[bool] = False
    segment_kernel: InitVar[bool] = False
    spin_kernel: InitVar[bool] = False

    def __post_init__(self, fast_path, segment_kernel, spin_kernel) -> None:
        for name, value, path in (
            ("fast_path", fast_path, "private-window fast path"),
            ("segment_kernel", segment_kernel, "columnar segment kernel"),
            ("spin_kernel", spin_kernel, "spin-phase collapse kernel"),
        ):
            if value is not False:
                raise ValueError(
                    f"{name}={value!r}: the {path} was removed; trace records "
                    "retire through the per-record interpreter only, so the "
                    "knob accepts nothing but False"
                )
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if self.cachebus_buffer_depth < 1:
            raise ValueError("cachebus_buffer_depth must be >= 1")
        if self.batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        from .coherence import get_protocol

        get_protocol(self.coherence)  # validates the name

    @property
    def line_bytes(self) -> int:
        return self.cache.line_bytes

    @property
    def line_data_cycles(self) -> int:
        """Bus cycles to move one cache line (2 with paper defaults)."""
        return self.bus.data_cycles(self.cache.line_bytes)

    @property
    def uncontended_miss_cycles(self) -> int:
        """Stall of an isolated miss (6 with paper defaults)."""
        return (
            self.bus.addr_cycles
            + self.memory.access_cycles
            + self.line_data_cycles
        )

    # -- lock-operation costs (repro.sync bus-op model; consumed by the
    # -- contention predictor, repro.sync.predict) ----------------------------
    @property
    def lock_c2c_cycles(self) -> int:
        """Bus cycles of a cache-to-cache lock-line transfer: address
        phase plus the line's data cycles (3 with paper defaults).  This
        is the cost of ``LOCK_READ``/``LOCK_RFO`` answered by another
        cache and of the ``LOCK_XFER`` hand-off transfer."""
        return self.bus.addr_cycles + self.line_data_cycles

    @property
    def lock_inval_cycles(self) -> int:
        """Bus cycles of a lock-line invalidation signal (``LOCK_INVAL``;
        1 with paper defaults): an address-only transaction."""
        return self.bus.addr_cycles

    @property
    def lock_mem_cycles(self) -> int:
        """End-to-end cycles of a lock operation served by memory
        (``LOCK_MEM`` and cold ``LOCK_READ``/``LOCK_RFO``; 6 with paper
        defaults) -- the same path as an uncontended cache miss."""
        return self.uncontended_miss_cycles

    def with_procs(self, n_procs: int) -> "MachineConfig":
        """A copy of this configuration with a different processor count."""
        return replace(self, n_procs=n_procs)

    # -- serialization (used by repro.runner to describe jobs across
    # -- process boundaries and in cache keys) -------------------------------
    def to_dict(self) -> dict:
        """A plain-JSON description of the full machine configuration."""
        return {
            "n_procs": self.n_procs,
            "cache": asdict(self.cache),
            "bus": asdict(self.bus),
            "memory": asdict(self.memory),
            "cachebus_buffer_depth": self.cachebus_buffer_depth,
            "batch_records": self.batch_records,
            "bus_fast_path": self.bus_fast_path,
            "coherence": self.coherence,
            "audit": self.audit,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MachineConfig":
        return cls(
            n_procs=d["n_procs"],
            cache=CacheConfig(**d["cache"]),
            bus=BusConfig(**d["bus"]),
            memory=MemoryConfig(**d["memory"]),
            cachebus_buffer_depth=d["cachebus_buffer_depth"],
            batch_records=d["batch_records"],
            # absent in descriptions serialized before the bus fast path
            # existed; the retired fast_path/segment_kernel/spin_kernel
            # keys of older descriptions are ignored, whatever their value
            bus_fast_path=d.get("bus_fast_path", True),
            coherence=d["coherence"],
            # absent in descriptions serialized before the auditor existed
            audit=d.get("audit", False),
        )
