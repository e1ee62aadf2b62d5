"""Paired per-cell simulation CPU of two source trees.

Times ``JobSpec.run`` for every cell of the paper grid (six programs,
six lock schemes, SC and WO) in two worker processes, one importing
``repro`` from each tree, and compares them cell by cell::

    python benchmarks/paired_cells.py A_SRC B_SRC [--rounds N] [--scale X] [--seed N]

``A_SRC`` and ``B_SRC`` are ``src`` directories, each holding a
``repro`` package; a worker refuses to start if ``repro`` imports from
anywhere else.  Every round starts a fresh pair of workers, the two
sides started in turn first, so a bias of one process (its memory
layout, say) averages out across rounds.  Both workers generate every
trace and build the interpreter tables before timing starts, and both
pin themselves to the same CPU, so they never run at once and always
run on the same core.  Within a round, consecutive cells alternate
which side runs first.

The tool stops without printing a ratio if any cell's result digest
(SHA-256 of its canonical ``result_to_dict`` JSON) differs between the
two sides.  Otherwise it prints, per round, B/A of the summed
simulation CPU beside each side's peak RSS (the worker ran the same
cells in the same order), then B/A per program, and next to it each
side's engine events and bus grants per program (one round's worth),
with the number of cells whose counts differ between the sides.
Running a tree against itself (an A/A run) shows how far apart two
identical sides read on the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

PROGRAMS = ("grav", "pdsa", "fullconn", "pverify", "qsort", "topopt")
LOCKS = ("queuing", "ttas", "mcs", "clh", "ticket", "backoff")
MODELS = ("sc", "wo")
CELLS = [(p, s, m) for p in PROGRAMS for s in LOCKS for m in MODELS]


def _worker(src: str, scale: float, seed: int, cpu: int) -> int:
    """Serve timing requests on stdin: one cell index per line in, one
    JSON reply per line out."""
    os.sched_setaffinity(0, {cpu})
    package = (Path(src) / "repro").resolve()
    sys.path.insert(0, str(Path(src).resolve()))
    import repro

    if Path(repro.__file__).resolve().parent != package:
        print(f"imported repro from {repro.__file__}, not {package}", file=sys.stderr)
        return 2
    from repro.machine.engine import Engine
    from repro.runner import JobSpec, result_to_dict
    from repro.workloads import generate_trace

    # A tree whose results predate RunResult.diagnostics["engine_events"]
    # is counted where the events are dispatched.
    dispatched = [0]
    engine_run = Engine.run

    def counted_run(self, *args, **kwargs):
        dispatched[0] = engine_run(self, *args, **kwargs)
        return dispatched[0]

    Engine.run = counted_run

    traces = {p: generate_trace(p, scale=scale, seed=seed) for p in PROGRAMS}
    specs = [
        JobSpec(
            program=p,
            scale=scale,
            seed=seed,
            lock_scheme=s,
            consistency=m,
            traceset=traces[p],
        )
        for p, s, m in CELLS
    ]
    for p in PROGRAMS:  # build each trace's interpreter tables untimed
        specs[CELLS.index((p, LOCKS[0], MODELS[0]))].run()
    print(json.dumps({"ready": repro.__file__}), flush=True)
    for line in sys.stdin:
        spec = specs[int(line)]
        t0 = time.process_time()
        result = spec.run()
        cpu_s = time.process_time() - t0
        canon = json.dumps(
            result_to_dict(result), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canon.encode()).hexdigest()
        events = result.diagnostics.get("engine_events", dispatched[0])
        grants = result.meta["bus_grants"]
        reply = {
            "cpu_s": cpu_s,
            "digest": digest,
            "events": events,
            "grants": grants,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        print(json.dumps(reply), flush=True)
    return 0


def _start(src: str, args, cpu: int) -> subprocess.Popen:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    cmd = [
        sys.executable,
        __file__,
        "--worker",
        src,
        "--scale",
        repr(args.scale),
        "--seed",
        str(args.seed),
        "--cpu",
        str(cpu),
    ]
    return subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
    )


def _read(proc: subprocess.Popen, side: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker {side} exited (code {proc.wait()})")
    return json.loads(line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a_src", nargs="?", help="src directory of side A (the baseline)")
    p.add_argument("b_src", nargs="?", help="src directory of side B")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=1991)
    p.add_argument("--worker", help=argparse.SUPPRESS)
    p.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        return _worker(args.worker, args.scale, args.seed, args.cpu)
    if not (args.a_src and args.b_src):
        p.error("A_SRC and B_SRC are required")

    cpu = max(os.sched_getaffinity(0))
    n = len(CELLS)
    cpu_s = {side: [[0.0] * n for _ in range(args.rounds)] for side in "AB"}
    counts = {side: [None] * n for side in "AB"}  # (events, grants) per cell
    src = {"A": args.a_src, "B": args.b_src}
    for r in range(args.rounds):
        # a fresh pair of workers per round, the sides taking turns to start first
        first = ("A", "B") if r % 2 == 0 else ("B", "A")
        workers = {side: _start(src[side], args, cpu) for side in first}
        peak_mb = {}
        try:
            for side, proc in workers.items():
                ready = _read(proc, side)["ready"]
                if r == 0:
                    print(f"{side}: {ready}", flush=True)
            for i in range(n):
                order = ("A", "B") if (i + r) % 2 == 0 else ("B", "A")
                digests = {}
                for side in order:
                    proc = workers[side]
                    proc.stdin.write(f"{i}\n")
                    proc.stdin.flush()
                    reply = _read(proc, side)
                    cpu_s[side][r][i] = reply["cpu_s"]
                    digests[side] = reply["digest"]
                    counts[side][i] = (reply["events"], reply["grants"])
                    peak_mb[side] = reply["peak_rss_kb"] / 1024
                if digests["A"] != digests["B"]:
                    label = "/".join(CELLS[i])
                    print(f"result digests differ on {label}: {digests}", file=sys.stderr)
                    return 1
        finally:
            for proc in workers.values():
                proc.stdin.close()
                proc.wait(timeout=60)
        a, b = sum(cpu_s["A"][r]), sum(cpu_s["B"][r])
        print(
            f"round {r + 1}: A {a:.3f} s  B {b:.3f} s  B/A {b / a:.4f}"
            f"  peak RSS A {peak_mb['A']:.1f} MB  B {peak_mb['B']:.1f} MB",
            flush=True,
        )

    print(
        f"\n{'program':<10} {'A_s':>9} {'B_s':>9} {'B/A':>7}"
        f" {'A_events':>10} {'B_events':>10} {'A_grants':>9} {'B_grants':>9}"
    )
    for prog in PROGRAMS + ("total",):
        idx = [i for i, c in enumerate(CELLS) if prog in (c[0], "total")]
        a = sum(cpu_s["A"][r][i] for r in range(args.rounds) for i in idx)
        b = sum(cpu_s["B"][r][i] for r in range(args.rounds) for i in idx)
        ev = {side: sum(counts[side][i][0] for i in idx) for side in "AB"}
        gr = {side: sum(counts[side][i][1] for i in idx) for side in "AB"}
        print(
            f"{prog:<10} {a:>9.3f} {b:>9.3f} {b / a:>7.4f}"
            f" {ev['A']:>10} {ev['B']:>10} {gr['A']:>9} {gr['B']:>9}"
        )
    differ = sum(counts["A"][i] != counts["B"][i] for i in range(n))
    print(f"cells whose engine events or bus grants differ: {differ} of {n}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
