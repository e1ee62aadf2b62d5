"""Shared-bus multiprocessor substrate: caches, Illinois coherence, the
split-transaction bus, memory, buffers, processors and the event engine.

Each public name loads its submodule on first use, so importing
``repro.machine.config`` or ``repro.machine.metrics`` does not load the
processor, the system or the trace layer behind them."""

from .. import _lazy

#: public name -> the submodule that defines it
_EXPORTS = {
    "BusOp": "buffers",
    "CacheBusBuffer": "buffers",
    "Bus": "bus",
    "BusLog": "buslog",
    "render_bus_anatomy": "buslog",
    "Cache": "cache",
    "EXCLUSIVE": "cache",
    "INVALID": "cache",
    "MODIFIED": "cache",
    "SHARED": "cache",
    "CoherenceProtocol": "coherence",
    "ILLINOIS": "coherence",
    "IllinoisProtocol": "coherence",
    "UPDATE_PROTOCOL": "coherence:UPDATE",
    "UpdateProtocol": "coherence",
    "get_protocol": "coherence",
    "BusConfig": "config",
    "CacheConfig": "config",
    "MachineConfig": "config",
    "MemoryConfig": "config",
    "Engine": "engine",
    "Memory": "memory",
    "ProcMetrics": "metrics",
    "RunResult": "metrics",
    "Processor": "processor",
    "System": "system",
    "simulate": "system",
}

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
__all__ = sorted(_EXPORTS)
