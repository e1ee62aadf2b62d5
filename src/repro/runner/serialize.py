"""JSON serialization for simulation results and their components.

Results must cross two boundaries the in-memory objects cannot:

* **process boundaries** — the parallel executor ships every worker
  result back to the coordinator as JSON, which both exercises this
  module on every parallel run and guarantees workers cannot leak
  non-picklable state into the batch;
* **time** — the content-addressed result cache and the batch manifest
  persist results on disk between invocations.

Every field of :class:`~repro.machine.metrics.RunResult` is integer or
string valued (cycle counts, event counts, names), so the round trip is
lossless: ``result_from_json(result_to_json(r)) == r`` exactly.  The one
deliberate exception is ``diagnostics`` (run introspection such as the
engine event count, ``compare=False``): two byte-identical results can
carry different counters, so persisting them would make cached bytes,
worker payloads and golden fixtures depend on which engine produced the
run.  They live only in memory.

Integer-keyed mappings (per-lock breakdowns, bus op counts) are stored
with stringified keys -- JSON object keys are always strings -- and
converted back on load.
"""

from __future__ import annotations

import json
import struct

from ..machine.config import MachineConfig
from ..machine.metrics import ProcMetrics, RunResult
from ..sync.stats import LockStats

__all__ = [
    "lockstats_to_dict",
    "lockstats_from_dict",
    "result_to_dict",
    "result_from_dict",
    "result_to_json",
    "result_from_json",
    "result_to_bytes",
    "result_from_bytes",
    "machine_to_dict",
    "machine_from_dict",
    "RESULT_CODEC",
]

#: RunResult scalar fields carried verbatim (all ints or strings).
_SCALAR_FIELDS = (
    "program",
    "n_procs",
    "lock_scheme",
    "consistency",
    "run_time",
    "bus_busy_cycles",
    "read_hits",
    "read_misses",
    "write_hits",
    "write_misses",
    "ifetch_hits",
    "ifetch_misses",
    "writebacks",
    "c2c_supplied",
    "invalidations_received",
    "buffer_max_occupancy",
)

_LOCKSTATS_SCALARS = (
    "acquisitions",
    "hold_cycles_total",
    "transfers",
    "waiters_at_transfer_total",
    "transfer_hold_cycles_total",
    "handoff_cycles_total",
    "uncontended_acquire_cycles_total",
    "uncontended_acquires",
)

_LOCKSTATS_MAPS = (
    "per_lock_acquisitions",
    "per_lock_transfers",
    "per_lock_waiters_total",
    "per_lock_hold_total",
)


def _intkeys_out(d: dict) -> dict:
    return {str(k): v for k, v in d.items()}


def _intkeys_in(d: dict) -> dict:
    return {int(k): v for k, v in d.items()}


def lockstats_to_dict(ls: LockStats) -> dict:
    d = {name: getattr(ls, name) for name in _LOCKSTATS_SCALARS}
    for name in _LOCKSTATS_MAPS:
        d[name] = _intkeys_out(getattr(ls, name))
    return d


def lockstats_from_dict(d: dict) -> LockStats:
    kwargs = {name: d[name] for name in _LOCKSTATS_SCALARS}
    for name in _LOCKSTATS_MAPS:
        kwargs[name] = _intkeys_in(d.get(name, {}))
    return LockStats(**kwargs)


def machine_to_dict(config: MachineConfig | None) -> dict | None:
    """``None``-tolerant wrapper around :meth:`MachineConfig.to_dict`."""
    return None if config is None else config.to_dict()


def machine_from_dict(d: dict | None) -> MachineConfig | None:
    return None if d is None else MachineConfig.from_dict(d)


def result_to_dict(r: RunResult) -> dict:
    d = {name: getattr(r, name) for name in _SCALAR_FIELDS}
    d["proc_metrics"] = [m.as_dict() for m in r.proc_metrics]
    d["lock_stats"] = lockstats_to_dict(r.lock_stats)
    d["bus_op_counts"] = _intkeys_out(r.bus_op_counts)
    d["meta"] = dict(r.meta)
    return d


def result_from_dict(d: dict) -> RunResult:
    kwargs = {name: d[name] for name in _SCALAR_FIELDS}
    return RunResult(
        proc_metrics=tuple(ProcMetrics.from_dict(m) for m in d["proc_metrics"]),
        lock_stats=lockstats_from_dict(d["lock_stats"]),
        bus_op_counts=_intkeys_in(d["bus_op_counts"]),
        meta=dict(d.get("meta", {})),
        **kwargs,
    )


def result_to_json(r: RunResult, indent: int | None = None) -> str:
    """Canonical JSON of ``r``: sorted keys and, without ``indent``,
    compact separators -- the bytes the result store keeps and serves."""
    separators = (",", ":") if indent is None else None
    return json.dumps(
        result_to_dict(r), indent=indent, sort_keys=True, separators=separators
    )


def result_from_json(text: str | bytes) -> RunResult:
    return result_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Binary result codec (the transport's bulk encoding)
# ----------------------------------------------------------------------
#: codec name carried on transport blobs; bump on layout changes
RESULT_CODEC = "result-v1"

_CODEC_MAGIC = b"RRB1"
_CODEC_HEADER = struct.Struct("!4sI")

#: _SCALAR_FIELDS that are integers (the three strings travel in the
#: descriptor instead)
_NUMERIC_SCALARS = tuple(
    name
    for name in _SCALAR_FIELDS
    if name not in ("program", "lock_scheme", "consistency")
)

#: ProcMetrics slot order is the codec's per-processor column order
_PROC_COLUMNS = ProcMetrics.__slots__


def result_to_bytes(r: RunResult) -> bytes:
    """Pack a result as one descriptor + one numeric array.

    Every numeric field of a :class:`RunResult` -- scalars, the
    per-processor metric rows, the lock-stats scalars and integer-keyed
    maps, bus op counts, and (integer-valued) meta entries -- lands in a
    single adaptively-typed ``int32``/``int64`` array behind a small
    JSON descriptor that records the shapes.  The round trip through
    :func:`result_from_bytes` is exact: ``result_from_bytes(
    result_to_bytes(r)) == r``.
    """
    meta_items = list(r.meta.items())
    meta_numeric = all(
        isinstance(v, int) and not isinstance(v, bool) for _, v in meta_items
    )
    values: list[int] = [getattr(r, name) for name in _NUMERIC_SCALARS]
    for m in r.proc_metrics:
        values.extend(getattr(m, name) for name in _PROC_COLUMNS)
    ls = r.lock_stats
    values.extend(getattr(ls, name) for name in _LOCKSTATS_SCALARS)
    map_lens = []
    for name in _LOCKSTATS_MAPS:
        mapping = getattr(ls, name)
        keys = sorted(mapping)
        map_lens.append(len(keys))
        values.extend(keys)
        values.extend(mapping[k] for k in keys)
    bus_keys = sorted(r.bus_op_counts)
    values.extend(bus_keys)
    values.extend(r.bus_op_counts[k] for k in bus_keys)
    if meta_numeric:
        values.extend(v for _, v in meta_items)
    desc = {
        "program": r.program,
        "lock_scheme": r.lock_scheme,
        "consistency": r.consistency,
        "rows": len(r.proc_metrics),
        "maps": map_lens,
        "bus": len(bus_keys),
    }
    if meta_numeric:
        desc["meta_keys"] = [k for k, _ in meta_items]
    else:  # non-integer meta values ride in the descriptor verbatim
        desc["meta"] = dict(r.meta)
    wide = any(not (-(2**31) <= v < 2**31) for v in values)
    desc["dtype"] = "<i8" if wide else "<i4"
    import numpy as np  # here: a process serving stored results never needs it

    arr = np.asarray(values, dtype=np.dtype(desc["dtype"]))
    desc_bytes = json.dumps(desc, separators=(",", ":")).encode()
    return (
        _CODEC_HEADER.pack(_CODEC_MAGIC, len(desc_bytes))
        + desc_bytes
        + arr.tobytes()
    )


def result_from_bytes(data: bytes) -> RunResult:
    """Exact inverse of :func:`result_to_bytes`.

    Blobs arrive from peers, so anything malformed -- short, a bad
    magic, a descriptor missing a field or holding the wrong type, a
    truncated or overlong numeric section -- raises ``ValueError``.
    """
    if len(data) < _CODEC_HEADER.size:
        raise ValueError(f"result blob of {len(data)} bytes is too short")
    magic, desc_len = _CODEC_HEADER.unpack_from(data)
    if magic != _CODEC_MAGIC:
        raise ValueError(f"bad result codec magic {magic!r}")
    desc_end = _CODEC_HEADER.size + desc_len
    desc = json.loads(data[_CODEC_HEADER.size : desc_end])
    if not isinstance(desc, dict):
        raise ValueError("result blob descriptor is not an object")
    try:
        return _decode_blob(desc, data[desc_end:])
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"malformed result blob descriptor: {type(exc).__name__}: {exc}"
        ) from None


def _decode_blob(desc: dict, numeric: bytes) -> RunResult:
    if desc["dtype"] not in ("<i4", "<i8"):
        raise ValueError(f"result blob dtype {desc['dtype']!r} is not <i4 or <i8")
    import numpy as np

    arr = np.frombuffer(numeric, dtype=np.dtype(desc["dtype"]))
    values = arr.tolist()  # native python ints, exactly as serialized

    cursor = 0

    def take(n: int) -> list:
        nonlocal cursor
        chunk = values[cursor : cursor + n]
        if len(chunk) != n:
            raise ValueError("result blob numeric section is truncated")
        cursor += n
        return chunk

    scalars = dict(zip(_NUMERIC_SCALARS, take(len(_NUMERIC_SCALARS))))
    procs = []
    for _ in range(desc["rows"]):
        row = take(len(_PROC_COLUMNS))
        m = ProcMetrics(row[0])
        for name, v in zip(_PROC_COLUMNS, row):
            setattr(m, name, v)
        procs.append(m)
    ls_kwargs = dict(zip(_LOCKSTATS_SCALARS, take(len(_LOCKSTATS_SCALARS))))
    for name, n in zip(_LOCKSTATS_MAPS, desc["maps"]):
        keys = take(n)
        ls_kwargs[name] = dict(zip(keys, take(n)))
    bus_keys = take(desc["bus"])
    bus_op_counts = dict(zip(bus_keys, take(desc["bus"])))
    if "meta_keys" in desc:
        meta = dict(zip(desc["meta_keys"], take(len(desc["meta_keys"]))))
    else:
        meta = dict(desc.get("meta", {}))
    if cursor != len(values):
        raise ValueError(f"result blob has {len(values) - cursor} trailing values")
    return RunResult(
        program=desc["program"],
        lock_scheme=desc["lock_scheme"],
        consistency=desc["consistency"],
        proc_metrics=tuple(procs),
        lock_stats=LockStats(**ls_kwargs),
        bus_op_counts=bus_op_counts,
        meta=meta,
        **scalars,
    )
