"""The repo benchmark: the paper grid cold, warm over HTTP, and filled
from a peer store.

    python3 perfbench/run.py --workload {grid_cold,grid_warm,grid_peer}
        [--seed N] [--seconds S] [--trace 0|1] [--scale X] [--expected FILE]
    python3 perfbench/run.py --write-expected FILE [--seed N] [--scale X]

``--trace 0`` prints every end-to-end metric by name with its unit;
``--trace 1`` runs the workload untraced and then traced, and prints
every per-layer metric, the layers ranked by self time, the unattributed
remainder and the tracing overhead.  The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).

Every cell's result is hashed and checked against the reference
interpreter's digest (all four fast paths off): the committed table in
``perfbench/expected/`` for its seed and scale, otherwise a table this
command computes after the timed part, in which case it also re-checks
the committed default-seed table (see :class:`Gate`).  The command
exits 1 when any cell failed, was refused or returned a wrong result,
and 2, without a result line, when it cannot run (no program sources, a
digest table that does not fit the run, a pass that was not cold, a
service process that died).

Everything runs in the production configuration: all four fast paths
on, audit off, ``jobs=1``, one client process in a closed loop with one
connection at a time.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from grid import (
    BENCH_DIR,
    CELLS,
    DEFAULT_SEED,
    PROGRAMS,
    ROOT,
    SCALE,
    SRC,
    WORK,
    child_env,
    digest,
    expected_path,
    grid_request,
    labels,
    source_digest,
    use_checkout_source,
)

#: ``BENCHMARK.json`` lists the first two; ``grid_peer``, whose spread
#: between runs on a small shared VM can pass the bounds, is run by hand
#: (see the README)
WORKLOADS = ("grid_cold", "grid_warm", "grid_peer")

#: end-to-end metrics in the JSON line of an untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_cell", "ms"),
    ("peak_rss_mb", "MB"),
)

#: set-ups repeated in one run; setup_s takes their median
BOOTS = 3
#: a served workload's timed part is cut into this many windows;
#: throughput and CPU per cell are the median over windows (a cold
#: grid's windows are its passes)
WINDOWS = 5
#: no wait for a process under test may push a run past this
CHILD_TIMEOUT_S = 120.0

#: what a traced run must show for each workload to load the layer it
#: was chosen for: (condition, test of the ``stress`` counts)
STRESS = {
    "grid_cold": (
        "machine self time >= 90% of the traced op time",
        lambda s: s["machine_self_share"] >= 0.90,
    ),
    "grid_warm": (
        "no System.run span and no transport span",
        lambda s: s["machine_run_spans"] == 0 and s["transport_spans"] == 0,
    ),
    "grid_peer": (
        "no System.run span, transport spans present",
        lambda s: s["machine_run_spans"] == 0 and s["transport_spans"] > 0,
    ),
}


# ----------------------------------------------------------------------
# Processes under test
# ----------------------------------------------------------------------
class Child:
    """A service process (``serve.py``) with a control pipe on stdin."""

    def __init__(self, name: str, args: list, log_dir: Path) -> None:
        self.name = name
        self.log = open(log_dir / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=child_env(),
            cwd=ROOT,
        )
        self._buf = b""
        self.port = None

    def _readline(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError(f"{self.name}: no answer within {timeout:g}s")
                data = os.read(fd, 4096)
                if not data:
                    raise RuntimeError(f"{self.name} exited (see its log in {WORK})")
                self._buf += data
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def wait_ready(self) -> "Child":
        word, port = self._readline().split()
        if word != "ready":
            raise RuntimeError(f"{self.name}: unexpected {word!r}")
        self.port = int(port)
        return self

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def stats(self) -> tuple[float, float]:
        """(CPU seconds so far, peak RSS in MB) of the process."""
        self.proc.stdin.write(b"stats\n")
        self.proc.stdin.flush()
        _, cpu, rss = self._readline().split()
        return float(cpu), float(rss)

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


def run_pass(name: str, store: Path, log_dir: Path, scale: float, seed: int, reference=False, spans_file=None) -> dict:
    """One ``cold.py`` pass in a fresh interpreter; returns its report."""
    out = log_dir / f"{name}.json"
    argv = [
        sys.executable, str(BENCH_DIR / "cold.py"),
        "--store", str(store), "--scale", repr(scale),
        "--seed", str(seed), "--out", str(out),
    ]
    if reference:
        argv.append("--reference")
    if spans_file:
        argv += ["--spans", str(spans_file)]
    spawned = time.monotonic_ns()
    with open(log_dir / f"{name}.log", "wb") as log:
        try:
            code = subprocess.run(
                argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{name}: pass did not finish in {CHILD_TIMEOUT_S:g}s")
    if code != 0:
        raise RuntimeError(f"{name}: exit code {code} (see {log_dir / (name + '.log')})")
    report = json.loads(out.read_text())
    report["spawned_ns"] = spawned
    return report


# ----------------------------------------------------------------------
# Measurement of one phase
# ----------------------------------------------------------------------
class Phase:
    """Timed ops of one phase and what they returned."""

    def __init__(self, cells_per_op: int) -> None:
        self.cells_per_op = cells_per_op
        self.latencies: list[float] = []  # seconds, one per op
        self.busy_s = 0.0  # sum of latencies
        self.cell_latencies: dict[str, list] = {}  # cold: per cell label
        self.cpu_s = 0.0  # CPU of the processes under test during ops
        self.windows: list[tuple] = []  # (cells, busy_s, cpu_s)
        self._window_start = (0, 0.0, 0.0)
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0  # failed, refused or served the wrong way
        self.errors: list[str] = []
        self.observed: Counter = Counter()  # (label, digest) -> cells
        self.ops: list[dict] = []

    def fail(self, cells: int, message: str) -> None:
        self.failed += cells
        if len(self.errors) < 10:
            self.errors.append(message)

    def add_op(self, latency_s: float, cpu_s: float) -> None:
        self.latencies.append(latency_s)
        self.busy_s += latency_s
        self.cpu_s += cpu_s

    def close_window(self, extra_cpu_s: float = 0.0) -> None:
        """End a window at the current op; ``extra_cpu_s`` is CPU the
        service processes spent in it."""
        self.cpu_s += extra_cpu_s
        cells, busy_s, cpu_s = self._window_start
        if self.cells > cells:  # an op longer than a window leaves the next empty
            self.windows.append((self.cells - cells, self.busy_s - busy_s, self.cpu_s - cpu_s))
            self._window_start = (self.cells, self.busy_s, self.cpu_s)

    @property
    def cells(self) -> int:
        return len(self.latencies) * self.cells_per_op

    @property
    def cells_per_s(self) -> float:
        """Median over windows of cells per second of ops."""
        return statistics.median(c / b for c, b, _ in self.windows)

    @property
    def cpu_ms_per_cell(self) -> float:
        return statistics.median(1e3 * cpu / c for c, _, cpu in self.windows)

    def op_samples(self) -> list[float]:
        """Latency samples: per-cell medians on a cold grid, ops otherwise."""
        if self.cell_latencies:
            return [statistics.median(v) for v in self.cell_latencies.values()]
        return self.latencies


def check_pass(phase: Phase, name: str, report: dict) -> None:
    """Count a cold pass's cells into ``phase``.  Cold means cold: the
    pass must have generated every trace and simulated every cell."""
    misses = (report["trace_misses"], report["result_misses"])
    if misses != (len(PROGRAMS), CELLS):
        raise RuntimeError(
            f"{name} was not cold: {misses[0]} trace / {misses[1]} result "
            f"store misses, want {len(PROGRAMS)} / {CELLS}"
        )
    count_cells(phase, name, report["cells"])


def count_cells(phase: Phase, name: str, cells: list) -> None:
    for cell in cells:
        phase.attempted += 1
        if cell["error"]:
            phase.fail(1, f"{name} {cell['label']}: {cell['error']}")
        elif cell["executed"] != 1:
            phase.fail(1, f"{name} {cell['label']}: served from a store on a cold pass")
        else:
            phase.observed[(cell["label"], cell["digest"])] += 1


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples above."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    q = 1.0 - 10.0 / n
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return 100.0 * q, xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def chunked_tail(samples: list[float], min_chunk: int = 100) -> tuple[float, float, int]:
    """(percentile, value, chunks): :func:`tail` of each run of at least
    ``min_chunk`` consecutive samples (at most WINDOWS runs), medians
    over the runs.  A long run then reports a tail near p90, not its
    single deepest percentile, which one stall of the host can set."""
    k = max(1, min(WINDOWS, len(samples) // min_chunk))
    size = len(samples) // k
    tails = [tail(samples[i * size : len(samples) if i == k - 1 else (i + 1) * size]) for i in range(k)]
    return statistics.median(p for p, _ in tails), statistics.median(v for _, v in tails), k


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class ColdGrid:
    """grid_cold: the 72 cells from empty stores, each pass in a fresh
    interpreter through ``run_jobs(jobs=1)``; one op is one cell."""

    def __init__(self, args, run_dir: Path, setup_start_ns: int) -> None:
        self.args, self.run_dir = args, run_dir
        self.setup_start_ns = setup_start_ns
        self.passes: list[dict] = []
        self.notes: dict = {}

    def setup(self) -> None:
        pass  # every pass sets itself up in its own interpreter

    def setup_s(self) -> float:
        first = self.passes[0]
        pre = (first["spawned_ns"] - self.setup_start_ns) / 1e9
        boots = [(p["first_op_ns"] - p["spawned_ns"]) / 1e9 for p in self.passes]
        self.notes["pass_setup_s"] = boots
        return pre + statistics.median(boots)

    def measure(self, seconds: float, traced: bool = False) -> tuple[Phase, list]:
        phase, span_files = Phase(cells_per_op=1), []
        while not phase.latencies or phase.busy_s < seconds:
            n = len(self.passes)
            name = f"pass-{n}" + ("-traced" if traced else "")
            spans_file = self.run_dir / f"{name}.spans.json" if traced else None
            report = run_pass(
                name, self.run_dir / name, self.run_dir, self.args.scale, self.args.seed, spans_file=spans_file
            )
            self.passes.append(report)
            if spans_file:
                span_files.append(spans_file)
            for cell in report["cells"]:
                phase.add_op(cell["latency_s"], cell["cpu_s"])
                phase.cell_latencies.setdefault(cell["label"], []).append(cell["latency_s"])
            check_pass(phase, name, report)
            phase.ops.append({"pass": name, "trace_misses": report["trace_misses"], "result_misses": report["result_misses"]})
            phase.close_window()
            phase.peak_rss_mb = max(phase.peak_rss_mb, report["peak_rss_mb"])
            shutil.rmtree(self.run_dir / name, ignore_errors=True)
        return phase, span_files

    def close(self) -> None:
        pass


class ServedGrid:
    """Common part of the two HTTP workloads: one op is one grid submit
    by ``ServiceClient`` to a front end over a pre-warmed store."""

    expect_status = "hit"

    def __init__(self, args, run_dir: Path, setup_start_ns: int) -> None:
        self.args, self.run_dir = args, run_dir
        self.setup_start_ns = setup_start_ns
        self.children: list[Child] = []
        self.notes: dict = {}
        self.boots: list[float] = []
        self.first_op_ns = None
        #: the pre-warm pass and warm-up ops: checked, never timed
        self.setup_phase = Phase(cells_per_op=CELLS)

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        use_checkout_source()
        from repro.runner import ResultCache
        from repro.service import ServiceClient

        self.client_cls, self.store_cls = ServiceClient, ResultCache
        self.request = grid_request(self.args.scale, self.args.seed)
        self.labels = labels()
        t0 = time.monotonic_ns()
        report = run_pass("prewarm", self.prewarm_dir(), self.run_dir, self.args.scale, self.args.seed)
        self.notes["prewarm_s"] = (time.monotonic_ns() - t0) / 1e9
        check_pass(self.setup_phase, "prewarm", report)
        for n in range(BOOTS):
            if n:
                self.stop_children()
            t0 = time.monotonic_ns()
            self.boot(traced=False)
            self.boots.append((time.monotonic_ns() - t0) / 1e9)
        self.notes["boot_s"] = self.boots
        self.op(self.setup_phase, None)  # first-request costs a long-lived server pays once

    def prewarm_dir(self) -> Path:
        raise NotImplementedError

    def boot(self, traced: bool) -> None:
        raise NotImplementedError

    def connect(self, front: Child) -> None:
        self.client = self.client_cls(f"http://{front.wait_ready().address}", timeout=CHILD_TIMEOUT_S)

    def spawn(self, name: str, args: list, traced: bool) -> Child:
        if traced:
            args = [*args, "--spans", str(self.run_dir / f"{name}.spans.json")]
        child = Child(name + ("-traced" if traced else ""), args, self.run_dir)
        self.children.append(child)
        return child

    def stop_children(self) -> None:
        # the front end first, so worker agents see its connections close
        while self.children:
            self.children.pop().stop()

    def setup_s(self) -> float:
        wall = (self.first_op_ns - self.setup_start_ns) / 1e9
        return wall - sum(self.boots) + statistics.median(self.boots)

    # -- ops -------------------------------------------------------------
    def before_op(self) -> None:
        pass

    def op(self, phase: Phase, recorder) -> None:
        self.before_op()
        phase.attempted += CELLS
        cpu0, t0 = time.process_time(), time.monotonic_ns()
        try:
            if recorder is None:
                response = self.client.submit(grid=self.request)
            else:
                with recorder.op(cells=CELLS):
                    response = self.client.submit(grid=self.request)
        except (OSError, ValueError) as exc:  # refused, reset, bad body
            phase.fail(CELLS, f"submit: {type(exc).__name__}: {exc}")
            raise
        finally:
            t1 = time.monotonic_ns()
            phase.add_op((t1 - t0) / 1e9, time.process_time() - cpu0)
        entries = response.get("results", [])
        statuses = Counter(e.get("status") for e in entries)
        executed = response.get("metrics", {}).get("executed", 0)
        phase.ops.append({"latency_ms": (t1 - t0) / 1e6, "statuses": dict(statuses), "executed_total": executed})
        if len(entries) != CELLS:
            phase.fail(CELLS, f"{len(entries)} results for {CELLS} cells")
            return
        for label, entry in zip(self.labels, entries):
            if entry.get("label") != label or not entry.get("ok"):
                phase.fail(1, f"{label}: {entry.get('error') or entry.get('label')}")
            elif entry.get("status") != self.expect_status:
                phase.fail(1, f"{label}: served as {entry.get('status')!r}, want {self.expect_status!r}")
            else:
                phase.observed[(label, digest(entry["result"]))] += 1

    def measure(self, seconds: float, traced: bool = False) -> tuple[Phase, list]:
        span_files = []
        recorder = None
        if traced:
            self.stop_children()
            self.boot(traced=True)
            self.op(self.setup_phase, None)
            import spans

            recorder = spans.install()
        phase = Phase(cells_per_op=CELLS)
        before = [c.stats()[0] for c in self.children]
        self.first_op_ns = self.first_op_ns or time.monotonic_ns()
        try:
            for k in range(1, WINDOWS + 1):
                while not phase.latencies or phase.busy_s < seconds * k / WINDOWS:
                    self.op(phase, recorder)
                now = [c.stats()[0] for c in self.children]
                phase.close_window(sum(now) - sum(before))
                before = now
        except (OSError, ValueError):
            # counted in the phase; a failed op ends it, and the ops so
            # far make its last window
            phase.close_window()
        finally:
            if recorder is not None:
                spans.uninstall(recorder)
                client_file = self.run_dir / "client.spans.json"
                recorder.dump(client_file)
                span_files.append(client_file)
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phase.peak_rss_mb = own_rss + sum(c.stats()[1] for c in self.children)
        if traced:
            names = [c.name for c in self.children]
            self.stop_children()
            span_files += [self.run_dir / f"{n.removesuffix('-traced')}.spans.json" for n in names]
        return phase, span_files

    def close(self) -> None:
        self.stop_children()


class WarmGrid(ServedGrid):
    """grid_warm: every cell is a hit in the front end's own store."""

    def prewarm_dir(self) -> Path:
        return self.run_dir / "front"

    def boot(self, traced: bool) -> None:
        self.connect(self.spawn("front", ["front", "--store", str(self.run_dir / "front" / "results")], traced))


class PeerGrid(ServedGrid):
    """grid_peer: the front end's store is emptied before every op, and
    every cell arrives from a peer store agent over binary frames."""

    expect_status = "remote"

    def prewarm_dir(self) -> Path:
        return self.run_dir / "agent"

    def boot(self, traced: bool) -> None:
        # the CI store-tier shape: a front end sharding to an empty
        # worker, with the full agent listed as its peer store
        agent = self.spawn("agent", ["worker", "--store", str(self.run_dir / "agent" / "results")], traced)
        worker = self.spawn("worker", ["worker", "--store", str(self.run_dir / "worker")], traced)
        agent.wait_ready(), worker.wait_ready()
        front = self.spawn(
            "front",
            ["front", "--store", str(self.run_dir / "front"),
             "--workers", worker.address, "--peers", agent.address],
            traced,
        )
        self.connect(front)

    def before_op(self) -> None:
        self.store_cls(self.run_dir / "front").clear()


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def load_table(path: Path, seed: int, scale: float) -> dict:
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise RuntimeError(f"digest table {path}: {exc}") from None
    if table.get("seed") != seed or table.get("scale") != scale:
        raise RuntimeError(
            f"digest table {path} is for seed {table.get('seed')} scale "
            f"{table.get('scale')}, not seed {seed} scale {scale}"
        )
    if sorted(table.get("cells", {})) != sorted(labels()):
        raise RuntimeError(f"digest table {path} does not cover the {CELLS} grid cells")
    return table


def reference_table(seed: int, scale: float, log_dir: Path) -> dict:
    """The reference interpreter's digests for this seed and scale."""
    report = run_pass("reference", log_dir / "reference-store", log_dir, scale, seed, reference=True)
    shutil.rmtree(log_dir / "reference-store", ignore_errors=True)
    bad = [c for c in report["cells"] if c["error"]]
    if bad:
        raise RuntimeError(f"reference run failed: {bad[0]['label']}: {bad[0]['error']}")
    return {
        "seed": seed,
        "scale": scale,
        "config": "reference interpreter: fast_path, bus_fast_path, segment_kernel and spin_kernel off",
        "cells": {c["label"]: c["digest"] for c in report["cells"]},
    }


class Gate:
    """The digest tables a run is checked against.

    ``stored``: the committed table of the run's seed and scale.
    ``given``: the table named by ``--expected``.  Both are loaded and
    checked to fit the run before set-up.  ``computed``: any other seed;
    the reference interpreter runs on this checkout's sources after the
    timed part.  Such a table moves with the sources, so a change to code
    both paths share would pass it; the run therefore also re-checks the
    committed default-seed table (the anchor) with the production paths,
    and the anchor's 72 cells count in ``attempted`` and ``failed``.
    Passes on computed tables are kept per source hash under the work
    directory, so one checkout runs each at most once.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.table = self.anchor = None
        self.anchor_note = ""
        stored = expected_path(args.seed, args.scale)
        if args.expected:
            self.kind, self.where = "given", args.expected
            self.table = load_table(Path(args.expected), args.seed, args.scale)
        elif stored.is_file():
            self.kind, self.where = "stored", str(stored.relative_to(ROOT))
            self.table = load_table(stored, args.seed, args.scale)
        else:
            self.kind, self.where = "computed", "a reference run on these sources"
            anchor = expected_path(DEFAULT_SEED, args.scale)
            if anchor.is_file():
                self.anchor = load_table(anchor, DEFAULT_SEED, args.scale)

    def complete(self, run_dir: Path) -> list[tuple[Phase, dict]]:
        """Runs the passes a computed table needs; returns the extra
        (phase, table) pairs to check."""
        if self.kind != "computed":
            return []
        args, kept = self.args, WORK / "reference"
        kept.mkdir(parents=True, exist_ok=True)
        src = source_digest()[:16]
        cache = kept / f"{src}-seed-{args.seed}-scale-{args.scale:g}.json"
        if cache.is_file():
            self.table = load_table(cache, args.seed, args.scale)
            self.where += " (kept from an earlier run)"
        else:
            self.table = reference_table(args.seed, args.scale, run_dir)
            cache.write_text(json.dumps(self.table, indent=1, sort_keys=True))
            self.where += " (computed after the timed part)"
        if self.anchor is None:
            self.anchor_note = f"no stored table at scale {args.scale:g} to re-check"
            return []
        cache = kept / f"{src}-production-seed-{DEFAULT_SEED}-scale-{args.scale:g}.json"
        if cache.is_file():
            cells = json.loads(cache.read_text())
            when = "kept from an earlier run"
        else:
            report = run_pass("anchor", run_dir / "anchor-store", run_dir, args.scale, DEFAULT_SEED)
            shutil.rmtree(run_dir / "anchor-store", ignore_errors=True)
            cells = report["cells"]
            if not any(c["error"] for c in cells):
                cache.write_text(json.dumps(cells))
            when = "run after the timed part"
        phase = Phase(cells_per_op=1)
        count_cells(phase, f"anchor seed {DEFAULT_SEED}", cells)
        self.anchor_note = (
            f"stored seed-{DEFAULT_SEED} table re-checked with the production paths "
            f"({len(cells)} cells, {when})"
        )
        return [(phase, self.anchor)]

    def describe(self) -> dict:
        return {"table": self.kind, "where": self.where, "anchor": self.anchor_note or None}


def check(checked: list[tuple[Phase, dict]]) -> tuple[int, int, list]:
    """(attempted, failed, errors) over every (phase, table) pair, digests included."""
    attempted = sum(p.attempted for p, _ in checked)
    failed = sum(p.failed for p, _ in checked)
    errors = [e for p, _ in checked for e in p.errors]
    for phase, table in checked:
        for (label, got), n in phase.observed.items():
            want = table["cells"].get(label)
            if want != got:
                failed += n
                if len(errors) < 20:
                    errors.append(
                        f"{label} seed {table['seed']}: digest {got[:12]} != expected {str(want)[:12]} ({n} cells)"
                    )
    return attempted, failed, errors


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, dict]:
    samples = phase.op_samples()
    pct, tail_s, chunks = chunked_tail(samples)
    metrics = {
        "setup_s": setup_s,
        "cells_per_s": phase.cells_per_s,
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_tail_ms": 1e3 * tail_s,
        "cpu_ms_per_cell": phase.cpu_ms_per_cell,
        "peak_rss_mb": phase.peak_rss_mb,
    }
    detail = {
        "ops": len(phase.latencies),
        "cells": phase.cells,
        "timed_s": phase.busy_s,
        "windows": len(phase.windows),
        "window_cells_per_s": [c / b for c, b, _ in phase.windows],
        "samples": len(samples),
        "tail_percentile": pct,
        "tail_chunks": chunks,
    }
    return metrics, detail


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<36} {value:>14.6g} {unit:<10} {note}")


def report_untraced(args, bench, measured: Phase, setup_s: float, report: dict) -> dict:
    values, detail = end_to_end(measured, setup_s)
    report["detail"] = detail
    report["ops"] = measured.ops
    notes = {
        "setup_s": f"(median of {len(bench.notes.get('boot_s') or bench.notes.get('pass_setup_s'))} set-ups)",
        "cells_per_s": f"({detail['cells']} cells in {detail['timed_s']:.3f} s of ops, median of {detail['windows']} windows)",
        "op_p50_ms": f"(n={detail['samples']} {'cells' if args.workload == 'grid_cold' else 'ops'})",
        "op_tail_ms": f"(p{detail['tail_percentile']:.1f}, n={detail['samples']}, median of {detail['tail_chunks']} chunks)",
        "cpu_ms_per_cell": "(all processes under test; median of windows)",
        "peak_rss_mb": "(summed over the processes under test)",
    }
    for name, unit in END_TO_END:
        print_metric(name, values[name], unit, notes[name])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def report_traced(args, untraced: Phase, traced: Phase, span_files: list, report: dict) -> dict:
    import spans

    layer, ranking = spans.analyze(spans.load(span_files))
    overhead = untraced.cells_per_s - traced.cells_per_s
    layer["tracing.overhead_cells_per_s"] = overhead
    layer["tracing.overhead_share"] = overhead / untraced.cells_per_s
    for name, unit in spans.PER_LAYER:
        print_metric(name, layer[name], unit)
    print("  layers by self time (share of traced op time):")
    for row in ranking["layers_by_self_time"]:
        print(f"    {row['layer']:<14} {row['share']:8.2%}  {row['self_s_per_grid']:.6g} s/grid")
    print(f"  tracing overhead: {untraced.cells_per_s:.6g} cells/s untraced, {traced.cells_per_s:.6g} traced")
    counts = ranking["span_counts"]
    stress = {
        "machine_self_share": layer["machine.self_share"],
        "machine_run_spans": counts.get("machine.run", 0),
        "transport_spans": counts.get("service.transport.call", 0),
    }
    condition, holds = STRESS[args.workload]
    stress["verdict"] = "pass" if holds(stress) else "fail"
    stress["condition"] = condition
    report["stress"] = stress
    print(
        f"  stress {stress['verdict']}: {condition} (machine self share "
        f"{stress['machine_self_share']:.3f}, {stress['machine_run_spans']} System.run "
        f"spans, {stress['transport_spans']} transport spans)"
    )
    report["ranking"] = {"workload": args.workload, "seed": args.seed, "scale": args.scale, **ranking}
    (WORK / args.workload / "ranking.json").write_text(json.dumps(report["ranking"], indent=1) + "\n")
    return {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    p.add_argument("--seconds", type=float, default=20.0, help="timed seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=SCALE, help="trace scale of every cell")
    p.add_argument("--expected", help="digest table to check against instead of the default")
    p.add_argument("--write-expected", metavar="FILE", help="write the reference digest table and exit")
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_expected:
        p.error("--workload is required")
    try:
        if args.write_expected:
            run_dir = WORK / "write-expected"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            table = reference_table(args.seed, args.scale, run_dir)
            Path(args.write_expected).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            return 0
        return run(args)
    except Exception as exc:  # the run could not complete: no result line
        traceback.print_exc()
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    gate = Gate(args)  # a table that does not fit fails before set-up
    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # every process of the run shares one CPU: the workloads are one
    # closed-loop pipeline, and on a small VM cross-CPU wake-ups would
    # time the hypervisor, not the program
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cls = {"grid_cold": ColdGrid, "grid_warm": WarmGrid, "grid_peer": PeerGrid}[args.workload]
    bench = cls(args, run_dir, time.monotonic_ns())
    phases: list[Phase] = []
    try:
        bench.setup()
        if isinstance(bench, ServedGrid):
            phases.append(bench.setup_phase)
        if args.trace:
            untraced, _ = bench.measure(args.seconds / 2)
            traced, span_files = bench.measure(args.seconds / 2, traced=True)
            phases += [untraced, traced]
        else:
            measured, _ = bench.measure(args.seconds)
            phases.append(measured)
            setup_s = bench.setup_s()
    finally:
        bench.close()
    anchor = gate.complete(run_dir)  # fills in a computed table
    attempted, failed, errors = check([(phase, gate.table) for phase in phases] + anchor)

    print(
        f"perfbench {args.workload}: seed {args.seed}, scale {args.scale:g}, "
        f"{args.seconds:g} s, trace {args.trace}"
    )
    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "notes": bench.notes, "gate": gate.describe(),
    }
    if args.trace:
        metrics = report_traced(args, untraced, traced, span_files, report)
    else:
        metrics = report_untraced(args, bench, measured, setup_s, report)
    print_metric("error_share", failed / attempted, "fraction", f"({failed} of {attempted} cells failed, refused or wrong)")
    print(f"  digests checked against {gate.kind} table: {gate.where}")
    if gate.anchor_note:
        print(f"  {gate.anchor_note}")
    for e in errors:
        print(f"  error: {e}")
    report.update({"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors})
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
