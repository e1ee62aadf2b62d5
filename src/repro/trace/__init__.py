"""MPTrace-like trace substrate: record model, address layout, builders,
statistics, (de)serialisation, validation and the critical-section
index."""

from .builder import TraceBuildError, TraceBuilder
from .cache import (
    TraceCache,
    TraceCacheStats,
    default_trace_cache_dir,
    resolve_trace_cache,
    trace_key,
)
from .encode import (
    FORMAT_VERSION,
    dumps_traceset,
    load_traceset,
    loads_traceset,
    save_traceset,
)
from .footprint import (
    ProcFootprint,
    SharingProfile,
    proc_footprint,
    sharing_profile,
)
from .inspect import dump_records, lock_event_log, summarize_traceset
from .layout import LINE_SIZE, AddressLayout
from .records import (
    BARRIER,
    IBLOCK,
    KIND_NAMES,
    LOCK,
    READ,
    RECORD_DTYPE,
    REP_STRIDE,
    UNLOCK,
    WRITE,
    Trace,
    TraceSet,
)
from .stats import TraceStats, compute_trace_stats
from .validate import (
    TraceValidationError,
    critical_sections,
    sync_free,
    validate_trace,
    validate_traceset,
)

__all__ = [
    "AddressLayout",
    "BARRIER",
    "FORMAT_VERSION",
    "IBLOCK",
    "KIND_NAMES",
    "LINE_SIZE",
    "LOCK",
    "ProcFootprint",
    "READ",
    "SharingProfile",
    "proc_footprint",
    "sharing_profile",
    "RECORD_DTYPE",
    "REP_STRIDE",
    "Trace",
    "TraceBuildError",
    "TraceBuilder",
    "TraceCache",
    "TraceCacheStats",
    "TraceSet",
    "TraceStats",
    "TraceValidationError",
    "UNLOCK",
    "WRITE",
    "compute_trace_stats",
    "critical_sections",
    "default_trace_cache_dir",
    "dump_records",
    "dumps_traceset",
    "lock_event_log",
    "resolve_trace_cache",
    "summarize_traceset",
    "sync_free",
    "load_traceset",
    "loads_traceset",
    "save_traceset",
    "trace_key",
    "validate_trace",
    "validate_traceset",
]
