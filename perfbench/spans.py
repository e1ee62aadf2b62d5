"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public calls into each layer (:data:`TARGETS`)
with a recorder that appends ``[name, start_ns, end_ns, parent, attrs]``
to an in-memory list; :meth:`Recorder.dump` writes it once, when the
process is done.  :func:`uninstall` puts every original function back.

Every process of a workload (the benchmark's client, a cold-pass child,
the front end, the worker agents) records its own spans on the shared
``CLOCK_MONOTONIC`` clock.  :func:`analyze` merges them: a process's root
span becomes the child of the innermost span of another process that
contains it (a worker's ``handle`` inside the front end's transport
call, the front end's ``submit_grid`` inside the client's HTTP round
trip), and each span belongs to the benchmark ``op`` span above it.
A span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from grid import CELLS, LOCKS, PROGRAMS

#: index of the innermost open span in this task/thread (-1: none)
_parent = contextvars.ContextVar("perfbench_parent", default=-1)


# ----------------------------------------------------------------------
# What each span records besides its interval
# ----------------------------------------------------------------------
def _machine_run(rec, args, result, _state):
    system, diag = args[0], result.diagnostics
    return {
        "program": system.traceset.program,
        "scheme": system.locks.name,
        "records": system.traceset.total_records(),
        "cycles": result.run_time,
        "window": diag.get("fp_records", 0),
        "kernel": diag.get("kernel_records", 0),
        "attempts": diag.get("kernel_attempts", 0),
        "rejected": diag.get("kernel_rejected", 0),
        "spin": diag.get("spin_segments", 0),
    }


def _generated(rec, args, result, _state):
    return {"records": result.total_records()}


def _found(rec, args, result, _state):
    return {"hit": result is not None}


def _trace_put(rec, args, key, _state):
    cache = args[0]
    return {"bytes": cache.data_path(key).stat().st_size + cache.meta_path(key).stat().st_size}


def _invalidated_before(args):
    return args[0].stats.invalidated


def _store_get(rec, args, result, before):
    return {"hit": result is not None, "invalidated": args[0].stats.invalidated - before}


def _store_put(rec, args, key, _state):
    return {"bytes": args[0].path_for(key).stat().st_size}


def _scheduler(rec, args, result, _state):
    # the scheduler's own counters (what GET /metrics renders)
    rec.schedulers[id(args[0])] = args[0].metrics
    return None


#: (module, attribute, span name, before hook, after hook).  A module
#: function is replaced in every ``repro`` module that holds it.
TARGETS = (
    ("repro.machine.system", "System.__init__", "machine.setup", None, None),
    ("repro.machine.system", "System.run", "machine.run", None, _machine_run),
    ("repro.workloads.registry", "generate_trace", "workloads.generate", None, _generated),
    ("repro.trace.cache", "TraceCache.get", "trace.cache.get", None, _found),
    ("repro.trace.cache", "TraceCache.put", "trace.cache.put", None, _trace_put),
    ("repro.runner.executor", "run_jobs", "runner.run_jobs", None, None),
    ("repro.runner.spec", "JobSpec.cache_key", "runner.key", None, None),
    ("repro.runner.cache", "ResultCache.get_by_key", "runner.store.get", _invalidated_before, _store_get),
    ("repro.runner.cache", "ResultCache.put", "runner.store.put", None, _store_put),
    ("repro.runner.serialize", "result_to_dict", "runner.serialize", None, None),
    ("repro.runner.serialize", "result_from_dict", "runner.serialize", None, None),
    ("repro.runner.serialize", "result_to_bytes", "runner.serialize", None, None),
    ("repro.runner.serialize", "result_from_bytes", "runner.serialize", None, None),
    ("repro.service.scheduler", "Scheduler.submit", "service.scheduler", None, _scheduler),
    ("repro.service.scheduler", "Scheduler.submit_grid", "service.scheduler", None, _scheduler),
    ("repro.service.frontend", "ServiceClient.submit", "service.http", None, None),
    ("repro.service.transport", "SocketTransport.call", "service.transport.call", None, None),
    ("repro.service.stores", "PeerStore.has", "service.peer.has", None, None),
    ("repro.service.stores", "PeerStore.fetch_result", "service.peer.fetch", None, _found),
    ("repro.service.worker", "WorkerAgent.handle", "service.worker", None, None),
)

#: layers in report order; a span's layer is the first part of its name
LAYERS = ("machine", "workloads", "trace", "runner", "service")


class Recorder:
    """In-memory span list of one process, plus the patches to undo."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.schedulers: dict[int, object] = {}
        self.patches: list[tuple] = []
        self.originals: dict[int, object] = {}  # id(wrapper) -> original

    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        idx = len(self.spans)
        self.spans.append([name, time.monotonic_ns(), 0, _parent.get(), None])
        return idx, _parent.set(idx)

    def _close(self, idx: int, token) -> None:
        self.spans[idx][2] = time.monotonic_ns()
        _parent.reset(token)

    @contextmanager
    def op(self, cells: int):
        """The benchmark's own span around one timed op."""
        idx, token = self._open("op")
        try:
            yield
        finally:
            self._close(idx, token)
            self.spans[idx][4] = {"cells": cells}

    def wrap(self, fn, name: str, before, after):
        wrapper = self._wrapper(fn, name, before, after)
        self.originals[id(wrapper)] = fn
        return wrapper

    def _wrapper(self, fn, name: str, before, after):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = before(args) if before else None
                idx, token = self._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._close(idx, token)
                if after:
                    self.spans[idx][4] = after(self, args, result, state)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            idx, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, token)
            if after:
                self.spans[idx][4] = after(self, args, result, state)
            return result

        return wrapper

    def dump(self, path) -> None:
        data = {
            "pid": os.getpid(),
            "spans": self.spans,
            "schedulers": [m.to_dict() for m in self.schedulers.values()],
        }
        Path(path).write_text(json.dumps(data))


def _repro_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def install() -> Recorder:
    """Wrap every target; returns the recorder (pass it to uninstall)."""
    rec = Recorder()
    for module_name, attr, name, before, after in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            rec.patches.append((owner, method, original))
            setattr(owner, method, rec.wrap(original, name, before, after))
            continue
        original = getattr(module, attr)
        wrapper = rec.wrap(original, name, before, after)
        for mod in _repro_modules():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    rec.patches.append((mod, binding, original))
                    setattr(mod, binding, wrapper)
    return rec


def uninstall(rec: Recorder) -> None:
    """Restore every function :func:`install` replaced, including copies
    of a wrapper that modules imported while it was installed."""
    for owner, binding, original in reversed(rec.patches):
        setattr(owner, binding, original)
    rec.patches.clear()
    for mod in _repro_modules():
        for binding, value in list(vars(mod).items()):
            if id(value) in rec.originals and callable(value):
                setattr(mod, binding, rec.originals[id(value)])


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
#: per-layer metrics of a traced run, with units.  ``/grid`` values are
#: totals divided by the grids the traced ops served (72 cells each).
PER_LAYER = (
    ("machine.setup.busy_s", "s/grid"),
    ("machine.run.busy_s", "s/grid"),
    *((f"machine.run.busy_s.{p}", "s/grid") for p in PROGRAMS),
    *((f"machine.run.busy_s.{s}", "s/grid") for s in LOCKS),
    ("machine.records_per_s", "1/s"),
    ("machine.sim_cycles_per_s", "1/s"),
    ("machine.interp_records_share", "fraction"),
    ("machine.window_records_share", "fraction"),
    ("machine.kernel_records_share", "fraction"),
    ("machine.kernel_accept_ratio", "fraction"),
    ("machine.spin_segments", "count/grid"),
    ("workloads.generate.busy_s", "s/grid"),
    ("workloads.generate.records_per_s", "1/s"),
    ("trace.cache.get.busy_s", "s/grid"),
    ("trace.cache.put.busy_s", "s/grid"),
    ("trace.cache.put.bytes", "bytes/grid"),
    ("trace.cache.hit_ratio", "fraction"),
    ("runner.key.busy_s", "s/grid"),
    ("runner.store.get.busy_s", "s/grid"),
    ("runner.store.hit_ratio", "fraction"),
    ("runner.store.put.busy_s", "s/grid"),
    ("runner.store.put.bytes_per_cell", "bytes"),
    ("runner.serialize.busy_s", "s/grid"),
    ("runner.store.invalidated", "count/grid"),
    ("service.scheduler.self_s", "s/grid"),
    ("service.http.self_ms", "ms/op"),
    ("service.transport.call.busy_s", "s/grid"),
    ("service.transport.bytes_per_cell", "bytes"),
    ("service.peer.has.busy_s", "s/grid"),
    ("service.peer.fetch.busy_s", "s/grid"),
    ("service.peer.hit_ratio", "fraction"),
    ("service.wait_s", "s/grid"),
    ("service.retries", "count/grid"),
    *((f"{layer}.self_s", "s/grid") for layer in LAYERS),
    *((f"{layer}.self_share", "fraction") for layer in LAYERS),
    ("unattributed.self_s", "s/grid"),
    ("unattributed.self_share", "fraction"),
    ("tracing.overhead_cells_per_s", "cells/s"),
    ("tracing.overhead_share", "fraction"),
)


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def link(processes: list[dict]) -> list[list]:
    """Merge per-process span lists into rows with global parent ids.

    Returns ``[name, start, end, parent, attrs, op]`` rows; ``op`` is the
    row id of the enclosing benchmark op span (-1: outside every op).
    """
    rows: list[list] = []
    offsets = []
    for proc in processes:
        base = len(rows)
        offsets.append(base)
        for name, start, end, parent, attrs in proc["spans"]:
            rows.append([name, start, end, parent + base if parent >= 0 else -1, attrs, -1])
    # spans are appended as they open, so each process's list is sorted
    # by start: bisect for the last span of another process opened
    # before a root, then climb its ancestors to the first containing it
    starts = [[s[1] for s in proc["spans"]] for proc in processes]
    for p, proc in enumerate(processes):
        for i, (name, start, end, parent, _attrs) in enumerate(proc["spans"]):
            if parent >= 0 or name == "op":
                continue
            best = -1
            for q, other in enumerate(processes):
                if q == p:
                    continue
                j = bisect.bisect_right(starts[q], start) - 1
                while j >= 0 and other["spans"][j][2] < end:
                    j = other["spans"][j][3]
                if j < 0:
                    continue
                g = offsets[q] + j
                if best < 0 or rows[g][2] - rows[g][1] < rows[best][2] - rows[best][1]:
                    best = g
            rows[offsets[p] + i][3] = best
    for g, row in enumerate(rows):
        chain, h = [], g
        while h >= 0 and rows[h][0] != "op" and rows[h][5] < 0:
            chain.append(h)
            h = rows[h][3]
        op = -1 if h < 0 else (h if rows[h][0] == "op" else rows[h][5])
        for c in chain:
            rows[c][5] = op
        if row[0] == "op":
            row[5] = g
    return rows


def self_times(rows: list[list]) -> list[float]:
    """Seconds of each row that none of its children cover."""
    children: dict[int, list] = {}
    for r in rows:
        if r[3] >= 0:
            children.setdefault(r[3], []).append((r[1], r[2]))
    out = []
    for g, r in enumerate(rows):
        covered, cursor = 0, r[1]
        for start, end in sorted(children.get(g, ())):
            start, end = max(start, cursor), min(end, r[2])
            if end > start:
                covered += end - start
                cursor = end
        out.append((r[2] - r[1] - covered) / 1e9)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def analyze(processes: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and the ranked account of one traced phase.

    Returns ``(metrics, ranking)``; ``metrics`` holds every name of
    :data:`PER_LAYER` except the ``tracing.*`` pair, which needs the
    untraced phase.
    """
    rows = link(processes)
    selfs = self_times(rows)
    busy: dict[str, float] = {}
    count: dict[str, int] = {}
    self_by: dict[str, float] = {}
    attrs: dict[str, list] = {}
    for r, s in zip(rows, selfs):
        if r[5] < 0:
            continue  # outside every timed op (warm-up, shutdown)
        name = r[0]
        busy[name] = busy.get(name, 0.0) + (r[2] - r[1]) / 1e9
        count[name] = count.get(name, 0) + 1
        self_by[name] = self_by.get(name, 0.0) + s
        if r[4] is not None:
            attrs.setdefault(name, []).append((r[4], (r[2] - r[1]) / 1e9))

    op_attrs = attrs.get("op", [])
    cells = sum(a["cells"] for a, _ in op_attrs)
    grids = cells / CELLS
    wall = busy.get("op", 0.0)

    def per_grid(x: float) -> float:
        return _ratio(x, grids)

    def total(name: str, key: str) -> float:
        return sum(a.get(key, 0) for a, _ in attrs.get(name, ()))

    m: dict[str, float] = {}
    run = busy.get("machine.run", 0.0)
    by_program = {p: 0.0 for p in PROGRAMS}
    by_scheme = {s: 0.0 for s in LOCKS}
    program_records: dict[str, list] = {p: [0, 0, 0] for p in PROGRAMS}
    for a, dur in attrs.get("machine.run", ()):
        by_program[a["program"]] += dur
        by_scheme[a["scheme"]] += dur
        pr = program_records[a["program"]]
        pr[0] += a["records"]
        pr[1] += a["window"]
        pr[2] += a["kernel"]
    records = total("machine.run", "records")
    window = total("machine.run", "window")
    kernel = total("machine.run", "kernel")
    attempts = total("machine.run", "attempts")
    m["machine.setup.busy_s"] = per_grid(busy.get("machine.setup", 0.0))
    m["machine.run.busy_s"] = per_grid(run)
    for p in PROGRAMS:
        m[f"machine.run.busy_s.{p}"] = per_grid(by_program[p])
    for s in LOCKS:
        m[f"machine.run.busy_s.{s}"] = per_grid(by_scheme[s])
    m["machine.records_per_s"] = _ratio(records, run)
    m["machine.sim_cycles_per_s"] = _ratio(total("machine.run", "cycles"), run)
    m["machine.interp_records_share"] = _ratio(records - window - kernel, records)
    m["machine.window_records_share"] = _ratio(window, records)
    m["machine.kernel_records_share"] = _ratio(kernel, records)
    m["machine.kernel_accept_ratio"] = _ratio(
        attempts - total("machine.run", "rejected"), attempts
    )
    m["machine.spin_segments"] = per_grid(total("machine.run", "spin"))

    gen = busy.get("workloads.generate", 0.0)
    m["workloads.generate.busy_s"] = per_grid(gen)
    m["workloads.generate.records_per_s"] = _ratio(total("workloads.generate", "records"), gen)
    m["trace.cache.get.busy_s"] = per_grid(busy.get("trace.cache.get", 0.0))
    m["trace.cache.put.busy_s"] = per_grid(busy.get("trace.cache.put", 0.0))
    m["trace.cache.put.bytes"] = per_grid(total("trace.cache.put", "bytes"))
    m["trace.cache.hit_ratio"] = _ratio(
        total("trace.cache.get", "hit"), count.get("trace.cache.get", 0)
    )

    m["runner.key.busy_s"] = per_grid(busy.get("runner.key", 0.0))
    m["runner.store.get.busy_s"] = per_grid(busy.get("runner.store.get", 0.0))
    m["runner.store.hit_ratio"] = _ratio(
        total("runner.store.get", "hit"), count.get("runner.store.get", 0)
    )
    m["runner.store.put.busy_s"] = per_grid(busy.get("runner.store.put", 0.0))
    m["runner.store.put.bytes_per_cell"] = _ratio(
        total("runner.store.put", "bytes"), count.get("runner.store.put", 0)
    )
    m["runner.serialize.busy_s"] = per_grid(busy.get("runner.serialize", 0.0))
    m["runner.store.invalidated"] = per_grid(total("runner.store.get", "invalidated"))

    schedulers = [s for proc in processes for s in proc.get("schedulers", ())]
    requests = sum(s["requests"] for s in schedulers)
    served_grids = requests / CELLS
    m["service.scheduler.self_s"] = per_grid(self_by.get("service.scheduler", 0.0))
    m["service.http.self_ms"] = 1e3 * _ratio(
        self_by.get("service.http", 0.0), count.get("service.http", 0)
    )
    m["service.transport.call.busy_s"] = per_grid(busy.get("service.transport.call", 0.0))
    m["service.transport.bytes_per_cell"] = _ratio(
        sum(s["bytes_sent"] + s["bytes_received"] for s in schedulers), requests
    )
    m["service.peer.has.busy_s"] = per_grid(busy.get("service.peer.has", 0.0))
    m["service.peer.fetch.busy_s"] = per_grid(busy.get("service.peer.fetch", 0.0))
    m["service.peer.hit_ratio"] = _ratio(
        total("service.peer.fetch", "hit"), count.get("service.peer.fetch", 0)
    )
    m["service.wait_s"] = _ratio(
        sum(s["stage_latency"]["wait"]["sum_seconds"] for s in schedulers), served_grids
    )
    m["service.retries"] = _ratio(sum(s["retries"] for s in schedulers), served_grids)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in self_by.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += s
    layer_self["unattributed"] = self_by.get("op", 0.0)
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = per_grid(s)
        m[f"{layer}.self_share"] = _ratio(s, wall)

    ranking = {
        "cells": cells,
        "traced_op_seconds": wall,
        "span_counts": dict(sorted(count.items())),
        "layers_by_self_time": [
            {"layer": layer, "self_s_per_grid": per_grid(s), "share": _ratio(s, wall)}
            for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1])
        ],
        "programs_by_run_time": [
            {
                "program": p,
                "run_s_per_grid": per_grid(t),
                "share_of_run": _ratio(t, run),
                "share_of_records": _ratio(program_records[p][0], records),
                "interp_records_share": _ratio(
                    program_records[p][0] - program_records[p][1] - program_records[p][2],
                    program_records[p][0],
                ),
            }
            for p, t in sorted(by_program.items(), key=lambda kv: -kv[1])
        ],
        "schemes_by_run_time": [
            {"scheme": s, "run_s_per_grid": per_grid(t), "share_of_run": _ratio(t, run)}
            for s, t in sorted(by_scheme.items(), key=lambda kv: -kv[1])
        ],
        "retirement_paths_by_records": sorted(
            (
                {"path": "interpreter", "records_share": m["machine.interp_records_share"]},
                {"path": "window fast path", "records_share": m["machine.window_records_share"]},
                {"path": "segment and spin kernels", "records_share": m["machine.kernel_records_share"]},
            ),
            key=lambda d: -d["records_share"],
        ),
    }
    return m, ranking
