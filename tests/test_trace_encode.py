"""Round-trip tests for the on-disk trace format."""

import numpy as np
import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.encode import (
    dumps_traceset,
    load_traceset,
    loads_traceset,
    save_traceset,
)
from repro.trace.layout import AddressLayout
from repro.trace.records import TraceSet


def sample_traceset(n_procs=3):
    layout = AddressLayout(n_procs)
    code = layout.alloc_code(256)
    sh = layout.alloc_shared(256)
    la = layout.alloc_lock()
    traces = []
    for p in range(n_procs):
        b = TraceBuilder(p, program="sample")
        b.block(4, 10, code)
        b.read(sh + 16 * p, reps=2)
        b.lock(0, la)
        b.write(sh)
        b.unlock(0, la)
        traces.append(b.finish())
    return TraceSet(traces, layout, program="sample", meta={"scale": 0.5, "seed": 7})


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        ts = sample_traceset()
        path = tmp_path / "t.npz"
        save_traceset(ts, path)
        ts2 = load_traceset(path)
        assert ts2.program == ts.program
        assert ts2.n_procs == ts.n_procs
        assert ts2.meta == ts.meta
        for a, b in zip(ts.traces, ts2.traces):
            assert np.array_equal(a.records, b.records)
            assert a.proc == b.proc

    def test_bytes_roundtrip(self):
        ts = sample_traceset(2)
        ts2 = loads_traceset(dumps_traceset(ts))
        for a, b in zip(ts.traces, ts2.traces):
            assert np.array_equal(a.records, b.records)

    def test_layout_roundtrip_continues_allocation(self, tmp_path):
        ts = sample_traceset(2)
        next_lock = ts.layout.alloc_lock()
        path = tmp_path / "t.npz"
        save_traceset(ts, path)
        ts2 = load_traceset(path)
        assert ts2.layout.alloc_lock() == ts.layout.alloc_lock()
        assert next_lock not in (ts2.layout.alloc_lock(),)

    def test_empty_traces_roundtrip(self, tmp_path):
        layout = AddressLayout(2)
        traces = [TraceBuilder(p).finish() for p in range(2)]
        ts = TraceSet(traces, layout, program="empty")
        path = tmp_path / "e.npz"
        save_traceset(ts, path)
        ts2 = load_traceset(path)
        assert ts2.total_records() == 0

    def test_workload_trace_roundtrip(self, tmp_path):
        from repro.workloads import generate_trace

        ts = generate_trace("fullconn", scale=0.1)
        path = tmp_path / "f.npz"
        save_traceset(ts, path)
        ts2 = load_traceset(path)
        assert ts2.total_records() == ts.total_records()
        for a, b in zip(ts.traces, ts2.traces):
            assert np.array_equal(a.records, b.records)


class TestErrors:
    def test_bad_version_rejected(self, tmp_path):
        import json

        ts = sample_traceset(1)
        path = tmp_path / "t.npz"
        save_traceset(ts, path)
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__meta__"].tobytes()))
            arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
        meta["version"] = 999
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_traceset(path)
