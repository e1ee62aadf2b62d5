"""Compact on-disk trace format.

MPTrace stores compressed basic-block traces and expands them in a
post-processing phase; our analog is a single ``.npz`` archive holding
one structured array per processor plus a JSON metadata blob (program
name, layout bookkeeping, generation parameters).  Traces round-trip
losslessly, and a loaded traceset is validated before it is returned.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np

from .layout import AddressLayout
from .records import RECORD_DTYPE, Trace, TraceSet
from .validate import validate_traceset

__all__ = [
    "FORMAT_VERSION",
    "save_traceset",
    "load_traceset",
    "dumps_traceset",
    "loads_traceset",
]

_FORMAT_VERSION = 1
#: public alias: the trace cache folds this into its keys so that a
#: format bump orphans every previously cached trace (see
#: :mod:`repro.trace.cache`)
FORMAT_VERSION = _FORMAT_VERSION


def _meta_blob(ts: TraceSet) -> np.ndarray:
    meta = {
        "version": _FORMAT_VERSION,
        "program": ts.program,
        "n_procs": ts.n_procs,
        "layout": ts.layout.to_dict(),
        "meta": ts.meta,
    }
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def _parse_meta(blob: np.ndarray) -> dict:
    meta = json.loads(bytes(blob.tobytes()).decode("utf-8"))
    if meta.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {meta.get('version')}")
    return meta


def save_traceset(ts: TraceSet, path: str | os.PathLike) -> None:
    """Write a :class:`TraceSet` to ``path`` (a ``.npz`` archive)."""
    arrays = {"__meta__": _meta_blob(ts)}
    for t in ts.traces:
        arrays[f"proc{t.proc}"] = t.records
    np.savez_compressed(path, **arrays)


def load_traceset(path: str | os.PathLike) -> TraceSet:
    """Read a :class:`TraceSet` previously written by :func:`save_traceset`.

    A trace file is outside input: the traceset is validated
    (:func:`~repro.trace.validate.validate_traceset`) before it is
    returned, so a malformed file raises
    :class:`~repro.trace.validate.TraceValidationError` here rather
    than misbehaving in the simulator.
    """
    with np.load(path) as archive:
        meta = _parse_meta(archive["__meta__"])
        traces = []
        for p in range(meta["n_procs"]):
            records = archive[f"proc{p}"]
            if records.dtype != RECORD_DTYPE:
                raise ValueError(f"proc{p}: unexpected record dtype {records.dtype}")
            traces.append(Trace(records, proc=p, program=meta["program"]))
    layout = AddressLayout.from_dict(meta["layout"])
    ts = TraceSet(traces, layout, program=meta["program"], meta=meta["meta"])
    validate_traceset(ts)
    return ts


def dumps_traceset(ts: TraceSet) -> bytes:
    """Serialize to bytes (same format as :func:`save_traceset`)."""
    buf = io.BytesIO()
    save_traceset(ts, buf)
    return buf.getvalue()


def loads_traceset(data: bytes) -> TraceSet:
    """Inverse of :func:`dumps_traceset`."""
    return load_traceset(io.BytesIO(data))
