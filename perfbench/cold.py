"""One pass of the paper grid through ``repro.runner.run_jobs`` in this
fresh interpreter.

Every cell is one ``run_jobs([spec], jobs=1)`` call against the result
and trace stores under ``--store``, timed on its own.  On an empty store
this is a cold pass: nothing a previous pass generated or simulated is
in memory (``repro.runner.executor._TRACE_MEMO``,
``repro.machine.processor._interp_memo``) or on disk.  The same pass
fills the store a warm front end or a peer agent serves from, and with
``--reference`` (all four fast paths off) it produces the reference
interpreter's digests the correctness gate compares against.

Writes a JSON report to ``--out``; with ``--spans`` it also records the
layer spans of every cell (see ``spans.py``).
"""

from __future__ import annotations

import time

STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from grid import LOCKS, MODELS, PROGRAMS, digest, use_checkout_source  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--store", required=True, help="directory of the result and trace stores")
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="where to write the JSON report")
    p.add_argument("--reference", action="store_true", help="all four fast paths off")
    p.add_argument("--spans", help="record layer spans and write them here")
    args = p.parse_args(argv)

    use_checkout_source()
    from repro.machine.config import MachineConfig
    from repro.machine.metrics import RunResult
    import repro.runner as runner
    from repro.runner import ResultCache, result_to_dict
    from repro.service import grid_specs
    from repro.trace.cache import TraceCache

    machine = (
        MachineConfig(fast_path=False, bus_fast_path=False, segment_kernel=False, spin_kernel=False)
        if args.reference
        else None
    )
    specs = grid_specs(
        PROGRAMS, LOCKS, MODELS, scale=args.scale, seed=args.seed, machine=machine
    )
    store = Path(args.store)
    results, traces = ResultCache(store / "results"), TraceCache(store / "traces")

    recorder = None
    if args.spans:
        import spans

        recorder = spans.install()
    cells = []
    first_op_ns = None
    try:
        for spec in specs:
            cpu0, t0 = time.process_time(), time.monotonic_ns()
            if recorder is None:
                batch = runner.run_jobs([spec], jobs=1, cache=results, trace_cache=traces)
            else:
                with recorder.op(cells=1):
                    batch = runner.run_jobs([spec], jobs=1, cache=results, trace_cache=traces)
            t1, cpu1 = time.monotonic_ns(), time.process_time()
            first_op_ns = first_op_ns or t0
            outcome = batch.outcomes[0]
            ok = isinstance(outcome, RunResult)
            cells.append(
                {
                    "label": spec.label(),
                    "latency_s": (t1 - t0) / 1e9,
                    "cpu_s": cpu1 - cpu0,
                    "executed": batch.stats.executed,
                    "digest": digest(result_to_dict(outcome)) if ok else None,
                    "error": None if ok else str(outcome),
                }
            )
    finally:
        if recorder is not None:
            spans.uninstall(recorder)
            recorder.dump(args.spans)

    report = {
        "started_ns": STARTED_NS,
        "first_op_ns": first_op_ns,
        "cells": cells,
        "result_misses": results.stats.misses,
        "trace_misses": traces.stats.misses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
