"""Command-line front end.

Examples::

    python -m repro figure1
    python -m repro table 3                 # regenerate a paper table
    python -m repro table 4 --scale 0.5
    python -m repro run grav --locks ttas --model sc
    python -m repro suite --jobs 8          # Tables 3-8, parallel + cached
    python -m repro batch --locks queuing,ttas --models sc,wo --jobs 4
    python -m repro cache stats
    python -m repro predict qsort --validate  # contention predictor
    python -m repro contention-report qsort --simulate queuing
    python -m repro generate qsort -o qsort.npz
    python -m repro ideal                   # Tables 1 and 2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def _add_config_options(sp: argparse.ArgumentParser) -> None:
    """``--locks``/``--model`` with upfront name validation."""
    from .consistency import MODEL_NAMES
    from .sync import LOCK_SCHEMES

    sp.add_argument(
        "--locks",
        default="queuing",
        choices=sorted(LOCK_SCHEMES),
        help="lock scheme (default: queuing)",
    )
    sp.add_argument(
        "--model",
        default="sc",
        choices=MODEL_NAMES,
        help="consistency model (default: sc)",
    )
    sp.add_argument(
        "--no-bus-fast-path",
        action="store_true",
        help=(
            "arbitrate and complete bus transactions through the reference "
            "event cascade instead of the fused contended-path fast path "
            "(identical results, slower; see 'diff-verify' and "
            "docs/performance.md)"
        ),
    )
    sp.add_argument(
        "--audit",
        action="store_true",
        help=(
            "attach the runtime invariant auditor (simulator sanitizer): "
            "abort at the first coherence/bus/lock/accounting "
            "violation (identical results, ~2x slower; see docs/audit.md)"
        ),
    )


def _add_runner_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    sp.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    sp.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    _add_trace_cache_options(sp)


def _add_trace_cache_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--trace-cache-dir",
        default=None,
        help=(
            "trace-cache directory (default: DIR/traces for --cache-dir DIR, "
            "else $REPRO_TRACE_CACHE_DIR or <result cache>/traces)"
        ),
    )
    sp.add_argument(
        "--no-trace-cache",
        action="store_true",
        help=(
            "regenerate workload traces instead of memory-mapping them "
            "from the content-addressed trace cache (identical traces "
            "either way; see 'repro trace')"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Baer & Zucker, 'On Synchronization Patterns in "
            "Parallel Programs' (ICPP 1991)"
        ),
    )
    p.add_argument("--scale", type=float, default=1.0, help="trace scale factor")
    p.add_argument("--seed", type=int, default=1991, help="workload RNG seed")
    sub = p.add_subparsers(dest="cmd", required=True)

    sub.add_parser("figure1", help="render the Figure 1 architecture diagram")

    t = sub.add_parser("table", help="regenerate one paper table (1-8)")
    t.add_argument("number", type=int, choices=range(1, 9))

    sub.add_parser("ideal", help="Tables 1 and 2 (no simulation)")

    r = sub.add_parser("run", help="simulate one benchmark")
    r.add_argument("workload")
    _add_config_options(r)
    r.add_argument("--procs", type=int, default=None)
    r.add_argument(
        "--per-proc", action="store_true", help="also print the per-processor detail"
    )
    r.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=15,
        default=None,
        metavar="N",
        help=(
            "run the simulation under cProfile and print the top N "
            "functions by total self-time (default N: 15) after the "
            "normal summary"
        ),
    )

    su = sub.add_parser("suite", help="run the full grid and print Tables 3-8")
    _add_runner_options(su)

    b = sub.add_parser(
        "batch",
        help="run an arbitrary experiment grid through the parallel job runner",
    )
    b.add_argument(
        "--programs",
        default="all",
        help="comma-separated workload names, or 'all' (default)",
    )
    b.add_argument(
        "--locks",
        default="queuing",
        help="comma-separated lock schemes (default: queuing)",
    )
    b.add_argument(
        "--models",
        default="sc",
        help="comma-separated consistency models (default: sc)",
    )
    b.add_argument("--procs", type=int, default=None, help="processor-count override")
    b.add_argument(
        "--spec-file",
        default=None,
        help="JSON file with a list of job-spec dicts (overrides the grid options)",
    )
    b.add_argument("--timeout", type=float, default=None, help="per-job seconds")
    b.add_argument("--retries", type=int, default=0, help="extra attempts per job")
    b.add_argument("--manifest", default=None, help="JSONL batch manifest path")
    b.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs already completed in --manifest",
    )
    _add_runner_options(b)

    c = sub.add_parser(
        "cache", help="inspect or clear the result and trace caches"
    )
    c.add_argument("action", choices=["stats", "clear"])
    c.add_argument("--cache-dir", default=None)
    c.add_argument("--trace-cache-dir", default=None)
    c.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="'clear' only: remove objects untouched for at least DAYS days",
    )
    c.add_argument(
        "--json",
        action="store_true",
        help="machine-readable stats (one JSON object over both stores)",
    )

    tr = sub.add_parser(
        "trace", help="pre-generate ('gen') or inspect ('stats') the trace cache"
    )
    tr.add_argument("action", choices=["gen", "stats"])
    tr.add_argument(
        "--programs",
        default="all",
        help="comma-separated workload names, or 'all' (default; 'gen' only)",
    )
    tr.add_argument("--procs", type=int, default=None, help="processor-count override")
    tr.add_argument("--trace-cache-dir", default=None)
    tr.add_argument(
        "--json",
        action="store_true",
        help="machine-readable stats ('stats' only)",
    )

    sv = sub.add_parser(
        "serve",
        help=(
            "run the sweep service: an HTTP front end over the "
            "deduplicating scheduler, or (--worker) a socket worker agent"
        ),
    )
    sv.add_argument("--host", default="127.0.0.1", help="listen address")
    sv.add_argument(
        "--port", type=int, default=8642, help="listen port (0 = ephemeral)"
    )
    sv.add_argument(
        "--worker",
        action="store_true",
        help=(
            "serve the worker-agent socket protocol (length-prefixed "
            "binary frames) instead of the HTTP front end "
            "(the far end of --workers)"
        ),
    )
    sv.add_argument(
        "--workers",
        default=None,
        help=(
            "comma-separated HOST:PORT worker agents; cold cells are then "
            "sharded across them instead of the local process pool"
        ),
    )
    sv.add_argument(
        "--peers",
        default=None,
        help=(
            "comma-separated HOST:PORT peer stores consulted before "
            "simulating (front end: the warm-store tier; --worker: the "
            "stores this agent pre-warms its shards from)"
        ),
    )
    sv.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help=(
            "front end only: refuse (HTTP 503 + Retry-After) once this "
            "many jobs are queued behind the running set"
        ),
    )
    sv.add_argument("--timeout", type=float, default=None, help="per-attempt seconds")
    sv.add_argument("--retries", type=int, default=0, help="extra attempts per job")
    sv.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        help="base seconds of exponential backoff between retry attempts",
    )
    sv.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job wall-clock budget across all attempts",
    )
    sv.add_argument(
        "--manifest", default=None, help="JSONL manifest the aggregator appends to"
    )
    sv.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing --manifest into the aggregator at boot",
    )
    _add_runner_options(sv)

    sb = sub.add_parser(
        "submit", help="submit an experiment grid to a running sweep service"
    )
    sb.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    sb.add_argument(
        "--programs",
        default="all",
        help="comma-separated workload names, or 'all' (default)",
    )
    sb.add_argument(
        "--locks",
        default="queuing",
        help="comma-separated lock schemes (default: queuing)",
    )
    sb.add_argument(
        "--models",
        default="sc",
        help="comma-separated consistency models (default: sc)",
    )
    sb.add_argument("--procs", type=int, default=None, help="processor-count override")
    sb.add_argument(
        "--spec-file",
        default=None,
        help="JSON file with a list of job-spec dicts (overrides the grid options)",
    )
    sb.add_argument(
        "--n-shards", type=int, default=None, help="shard-count override"
    )
    sb.add_argument(
        "--priority",
        choices=["normal", "high"],
        default=None,
        help="queue lane (high jumps the normal backlog)",
    )
    sb.add_argument(
        "--http-timeout", type=float, default=600.0, help="client-side seconds"
    )
    sb.add_argument(
        "--json", action="store_true", help="print the raw JSON response"
    )

    st = sub.add_parser(
        "status", help="snapshot a running sweep service (scheduler, stores, metrics)"
    )
    st.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    st.add_argument(
        "--metrics",
        action="store_true",
        help="print the raw Prometheus /metrics exposition instead",
    )
    st.add_argument(
        "--json", action="store_true", help="print the raw JSON snapshot"
    )

    g = sub.add_parser("generate", help="generate a trace file")
    g.add_argument("workload")
    g.add_argument("-o", "--out", required=True)

    s = sub.add_parser("simulate", help="simulate a saved trace file")
    s.add_argument("tracefile")
    _add_config_options(s)

    sub.add_parser("decompose", help="section 3.2 T&T&S slowdown decomposition")

    pr = sub.add_parser("profile", help="per-lock contention profile of one benchmark")
    pr.add_argument("workload")
    _add_config_options(pr)
    pr.add_argument("--top", type=int, default=12)

    sub.add_parser(
        "claims", help="evaluate every paper claim against a fresh suite run"
    )

    ins = sub.add_parser("inspect", help="summarize or dump a trace")
    ins.add_argument("target", help="workload name or .npz trace file")
    ins.add_argument("--dump", type=int, metavar="N", help="dump N records of --proc")
    ins.add_argument("--proc", type=int, default=0)
    ins.add_argument("--start", type=int, default=0)

    rep = sub.add_parser(
        "report", help="the full reproduction booklet (figure, tables, claims, fidelity)"
    )
    rep.add_argument("-o", "--out", default=None, help="write to a file instead of stdout")

    fp = sub.add_parser(
        "footprint", help="trace footprint and sharing analysis of one benchmark"
    )
    fp.add_argument("workload")

    pd = sub.add_parser(
        "predict",
        help=(
            "closed-form contention prediction: per-scheme predicted "
            "lock-cycle and bus-traffic shares from ideal-trace lock "
            "statistics (see docs/locks.md)"
        ),
    )
    pd.add_argument("workload")
    pd.add_argument(
        "--schemes",
        default="all",
        help="comma-separated lock schemes, or 'all' (default: every registered scheme)",
    )
    pd.add_argument(
        "--validate",
        action="store_true",
        help=(
            "also simulate every scheme and print the predictor's "
            "relative error per cell (slower: one full run per scheme)"
        ),
    )
    pd.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable output: one JSON object with the "
            "calibration and per-scheme predictions (or, with "
            "--validate, the predictor-vs-simulation rows)"
        ),
    )
    _add_trace_cache_options(pd)

    cr = sub.add_parser(
        "contention-report",
        help=(
            "replay-based unnecessary-contention report: per-lock "
            "verdicts pinpointing critical sections that hold their "
            "lock longer than the conflicting accesses require"
        ),
    )
    cr.add_argument("workload")
    cr.add_argument(
        "--simulate",
        metavar="SCHEME",
        default=None,
        help=(
            "also simulate under this lock scheme and fold the measured "
            "transfers and waiter populations into the report"
        ),
    )
    cr.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable output: one JSON object with the workload "
            "identity and the per-lock verdicts"
        ),
    )
    _add_trace_cache_options(cr)

    dv = sub.add_parser(
        "diff-verify",
        help=(
            "differentially verify the bus fast path: run every "
            "workload/lock/model cell with bus_fast_path on and off and "
            "require byte-identical results"
        ),
    )
    dv.add_argument(
        "--programs",
        default="all",
        help="comma-separated workload names, or 'all' (default)",
    )
    dv.add_argument(
        "--locks",
        default="grid",
        help=(
            "comma-separated lock schemes, 'grid' (default: the "
            "differential grid's six-scheme axis) or 'all' (every "
            "registered scheme)"
        ),
    )
    dv.add_argument(
        "--models",
        default="sc,wo",
        help="comma-separated consistency models (default: sc,wo)",
    )
    dv.add_argument(
        "--audit",
        action="store_true",
        help=(
            "also run the invariant auditor over the fast run of each "
            "cell and require zero violations"
        ),
    )
    _add_trace_cache_options(dv)
    return p


def _trace_cache_root(args):
    """The trace-cache directory the flags name: ``--trace-cache-dir``,
    else ``<--cache-dir>/traces``, else ``None`` (the default location)."""
    root = getattr(args, "trace_cache_dir", None)
    cache_dir = getattr(args, "cache_dir", None)
    if root is None and cache_dir is not None:
        root = Path(cache_dir) / "traces"
    return root


def _trace_cache_arg(args):
    """The ``trace_cache`` argument implied by shared CLI flags: a
    handle (cache on), or ``False`` (off, ignoring the environment)."""
    if getattr(args, "no_trace_cache", False):
        return False
    from .trace.cache import TraceCache

    return TraceCache(_trace_cache_root(args))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # each of these imports only what it uses: submit and status, the
    # service's clients, load no simulator
    command = {
        "batch": _run_batch,
        "cache": _run_cache,
        "trace": _run_trace,
        "serve": _run_serve,
        "submit": _run_submit,
        "status": _run_status,
        "predict": _run_predict,
        "contention-report": _run_contention_report,
        "diff-verify": _run_diff_verify,
    }.get(args.cmd)
    if command is not None:
        return command(args)
    # imports deferred so `--help` stays snappy
    from . import core
    from .consistency import get_model
    from .machine.system import simulate as _simulate
    from .sync import get_lock_manager
    from .trace import load_traceset, save_traceset
    from .workloads import generate_trace

    if args.cmd == "figure1":
        text, _ = core.figure1()
        print(text)
    elif args.cmd == "table":
        print(core.render_any(args.number, scale=args.scale, seed=args.seed))
    elif args.cmd == "ideal":
        for fn in (core.table1, core.table2):
            text, _ = fn(scale=args.scale, seed=args.seed)
            print(text)
            print()
    elif args.cmd == "run":
        ts = generate_trace(
            args.workload, scale=args.scale, seed=args.seed, n_procs=args.procs
        )

        def _do_run():
            return _simulate(
                ts,
                config=_machine_config(args, ts),
                lock_manager=get_lock_manager(args.locks),
                model=get_model(args.model),
            )

        if args.profile is not None:
            result, stats_text = _profiled(_do_run, top=args.profile)
        else:
            result, stats_text = _do_run(), None
        print(result.summary())
        if args.per_proc:
            print()
            print(core.render_per_proc(result))
        if stats_text is not None:
            print()
            print(stats_text, end="")
    elif args.cmd == "suite":
        from .runner import ResultCache

        cache = None if args.no_cache else ResultCache(args.cache_dir)
        tcache = _trace_cache_arg(args)
        suite = core.run_suite(
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            cache=cache,
            trace_cache=tcache,
        )
        for fn in (core.table3, core.table4, core.table5, core.table6, core.table7, core.table8):
            text, _ = fn(suite=suite)
            print(text)
            print()
        text, _ = core.section32(suite=suite)
        print(text)
        # stats go to stderr so stdout stays byte-identical to the
        # serial, uncached table output
        if suite.batch is not None:
            print(f"[runner] {suite.batch.stats.summary()}", file=sys.stderr)
        if cache is not None:
            print(f"[cache] {cache.stats.summary()}", file=sys.stderr)
        if tcache:
            print(f"[trace-cache] {tcache.stats.summary()}", file=sys.stderr)
    elif args.cmd == "generate":
        ts = generate_trace(args.workload, scale=args.scale, seed=args.seed)
        save_traceset(ts, args.out)
        print(f"wrote {ts.total_records()} records for {ts.n_procs} processors to {args.out}")
    elif args.cmd == "simulate":
        ts = load_traceset(args.tracefile)
        result = _simulate(
            ts,
            config=_machine_config(args, ts),
            lock_manager=get_lock_manager(args.locks),
            model=get_model(args.model),
        )
        print(result.summary())
    elif args.cmd == "decompose":
        text, _ = core.section32(scale=args.scale, seed=args.seed)
        print(text)
    elif args.cmd == "profile":
        ts = generate_trace(args.workload, scale=args.scale, seed=args.seed)
        result = _simulate(
            ts,
            config=_machine_config(args, ts),
            lock_manager=get_lock_manager(args.locks),
            model=get_model(args.model),
        )
        print(core.render_lock_profile(result, ts, top=args.top))
    elif args.cmd == "claims":
        results = core.check_all_claims(scale=args.scale, seed=args.seed)
        print(core.render_claim_report(results))
        return 0 if all(r.holds for r in results) else 1
    elif args.cmd == "inspect":
        from .trace import dump_records, summarize_traceset

        if args.target.endswith(".npz"):
            ts = load_traceset(args.target)
        else:
            ts = generate_trace(args.target, scale=args.scale, seed=args.seed)
        print(summarize_traceset(ts))
        if args.dump:
            print()
            print(dump_records(ts[args.proc], start=args.start, count=args.dump))
    elif args.cmd == "report":
        text = core.build_booklet(scale=args.scale, seed=args.seed)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote reproduction booklet to {args.out}")
        else:
            print(text)
    elif args.cmd == "footprint":
        from .trace.footprint import sharing_profile

        ts = generate_trace(args.workload, scale=args.scale, seed=args.seed)
        prof = sharing_profile(ts)
        print(
            f"{ts.program}: {prof.shared_lines:,} shared data lines; "
            f"{prof.actively_shared:,} touched by 2+ processors "
            f"({100 * prof.active_fraction:.1f}%); {prof.write_shared:,} write-shared"
        )
        print(f"{'proc':>4} {'data lines':>11} {'shared':>8} {'code':>6} {'fits 64KB':>10}")
        for f in prof.footprints:
            print(
                f"{f.proc:>4} {f.data_lines:>11,} {f.shared_data_lines:>8,} "
                f"{f.code_lines:>6,} {str(f.fits_in()):>10}"
            )
    return 0


def _run_cache(args) -> int:
    """``repro cache``: one command over both content-addressed stores."""
    from .runner import ResultCache
    from .trace.cache import TraceCache

    cache = ResultCache(args.cache_dir)
    tcache = TraceCache(_trace_cache_root(args))
    if args.action == "stats":
        if args.json:
            import json

            result_stats = cache.stats_dict()
            trace_stats = tcache.stats_dict()
            print(
                json.dumps(
                    {
                        "result_cache": result_stats,
                        "trace_cache": trace_stats,
                        "total_bytes": (
                            result_stats["size_bytes"] + trace_stats["size_bytes"]
                        ),
                    },
                    indent=2,
                )
            )
            return 0
        print(cache.describe())
        print()
        print(tcache.describe())
    else:
        scope = (
            f"result(s) older than {args.older_than:g} day(s)"
            if args.older_than is not None
            else "cached result(s)"
        )
        removed = cache.clear(older_than_days=args.older_than)
        print(f"removed {removed} {scope} from {cache.root}")
        scope = (
            f"traceset(s) older than {args.older_than:g} day(s)"
            if args.older_than is not None
            else "cached traceset(s)"
        )
        removed = tcache.clear(older_than_days=args.older_than)
        print(f"removed {removed} {scope} from {tcache.root}")
    return 0


def _run_trace(args) -> int:
    """``repro trace``: pre-warm or inspect the trace cache."""
    import time

    from .trace.cache import TraceCache, trace_key
    from .workloads.registry import BENCHMARK_ORDER, WORKLOADS, generate_trace

    tcache = TraceCache(args.trace_cache_dir)
    if args.action == "stats":
        if args.json:
            import json

            print(json.dumps(tcache.stats_dict(), indent=2))
        else:
            print(tcache.describe())
        return 0
    if args.programs.strip().lower() == "all":
        programs = list(BENCHMARK_ORDER)
    else:
        programs = [p.strip() for p in args.programs.split(",") if p.strip()]
    for prog in programs:
        if prog not in WORKLOADS:
            print(
                f"error: unknown workload {prog!r}; "
                f"expected one of {sorted(WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
    for prog in programs:
        t0 = time.perf_counter()
        ts = generate_trace(
            prog,
            scale=args.scale,
            seed=args.seed,
            n_procs=args.procs,
            trace_cache=tcache,
        )
        elapsed = time.perf_counter() - t0
        key = trace_key(prog, args.scale, args.seed, args.procs)
        print(
            f"{prog:10s} {ts.total_records():>10,} records  "
            f"key {key[:12]}  {1000 * elapsed:6.0f} ms"
        )
    print(f"[trace-cache] {tcache.stats.summary()}", file=sys.stderr)
    return 0


def _profiled(fn, top: int = 15):
    """Run ``fn()`` under :mod:`cProfile`; return ``(fn's result, a
    tottime-sorted top-``top`` stats table as text)``."""
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    result = prof.runcall(fn)
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("tottime").print_stats(top)
    return result, buf.getvalue()


def _run_predict(args) -> int:
    """``repro predict``: the closed-form contention predictor."""
    from .consistency import SEQUENTIAL
    from .machine.system import simulate
    from .sync import LOCK_SCHEMES, get_lock_manager
    from .sync.predict import calibrate, predict, validate
    from .workloads import generate_trace

    if args.schemes.strip().lower() == "all":
        schemes = sorted(LOCK_SCHEMES)
    else:
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for scheme in schemes:
        if scheme not in LOCK_SCHEMES:
            print(
                f"error: unknown lock scheme {scheme!r}; "
                f"expected one of {sorted(LOCK_SCHEMES)}",
                file=sys.stderr,
            )
            return 2
    ts = generate_trace(
        args.workload,
        scale=args.scale,
        seed=args.seed,
        trace_cache=_trace_cache_arg(args),
    )
    if args.validate:
        rows = validate(ts, schemes)
        if args.json:
            import json

            print(json.dumps({"program": ts.program, "rows": rows}, indent=2))
            return 0
        print(
            f"{'scheme':<14} {'pred lock%':>10} {'sim lock%':>10} {'err':>6}"
            f" {'pred bus%':>10} {'sim bus%':>9} {'err':>6}"
        )
        for r in rows:
            print(
                f"{r['scheme']:<14} {r['predicted_lock_share']:>10.2f} "
                f"{r['observed_lock_share']:>10.2f} {r['lock_rel_err']:>6.3f}"
                f" {r['predicted_bus_share']:>10.2f} "
                f"{r['observed_bus_share']:>9.2f} {r['bus_rel_err']:>6.3f}"
            )
        mean_lock = sum(r["lock_rel_err"] for r in rows) / len(rows)
        mean_bus = sum(r["bus_rel_err"] for r in rows) / len(rows)
        print(
            f"\nmean relative error: lock share {mean_lock:.3f}, "
            f"bus share {mean_bus:.3f}"
        )
        return 0
    # one baseline run calibrates the machine factors; every scheme's
    # prediction is then closed form
    base = simulate(ts, None, get_lock_manager("queuing"), SEQUENTIAL)
    cal = calibrate(ts, base)
    if args.json:
        import json
        from dataclasses import asdict

        print(
            json.dumps(
                {
                    "program": ts.program,
                    "calibration": asdict(cal),
                    "predictions": [
                        asdict(predict(ts, scheme, cal)) for scheme in schemes
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(
        f"{ts.program}: calibrated on '{cal.baseline_scheme}' "
        f"(dilation {cal.kappa:.3f})"
    )
    print(f"{'scheme':<14} {'lock stall%':>11} {'bus traffic%':>13} {'stall cycles':>14}")
    for scheme in schemes:
        pred = predict(ts, scheme, cal)
        print(
            f"{scheme:<14} {pred.lock_share:>11.2f} {pred.bus_share:>13.2f} "
            f"{pred.stall_cycles:>14,.0f}"
        )
    return 0


def _run_contention_report(args) -> int:
    """``repro contention-report``: shrinkable critical sections."""
    from .consistency import SEQUENTIAL
    from .machine.system import simulate
    from .sync import LOCK_SCHEMES, get_lock_manager
    from .sync.predict import contention_report
    from .workloads import generate_trace

    result = None
    if args.simulate is not None and args.simulate not in LOCK_SCHEMES:
        print(
            f"error: unknown lock scheme {args.simulate!r}; "
            f"expected one of {sorted(LOCK_SCHEMES)}",
            file=sys.stderr,
        )
        return 2
    ts = generate_trace(
        args.workload,
        scale=args.scale,
        seed=args.seed,
        trace_cache=_trace_cache_arg(args),
    )
    if args.simulate is not None:
        result = simulate(ts, None, get_lock_manager(args.simulate), SEQUENTIAL)
    verdicts = contention_report(ts, result=result)
    if args.json:
        import json
        from dataclasses import asdict

        print(
            json.dumps(
                {
                    "program": ts.program,
                    "simulated_scheme": args.simulate,
                    "verdicts": [asdict(v) for v in verdicts],
                },
                indent=2,
            )
        )
        return 0
    header = (
        f"{'lock':>5} {'acqs':>7} {'procs':>5} {'hold':>8} "
        f"{'conflict lines':>14} {'shrinkable':>10} verdict"
    )
    if result is not None:
        header += f"  {'transfers':>9} {'waiters':>8}"
    print(header)
    for v in verdicts:
        line = (
            f"{v.lock_id:>5} {v.acquisitions:>7,} {v.n_procs:>5} "
            f"{v.mean_hold:>8.1f} {v.conflict_lines:>14,} "
            f"{100 * v.shrinkable_frac:>9.1f}% {v.verdict}"
        )
        if result is not None:
            line += f"  {v.transfers:>9,} {v.sim_waiters:>8.2f}"
        print(line)
    flagged = [v for v in verdicts if v.verdict != "tight"]
    print(
        f"\n{len(verdicts)} lock(s); {len(flagged)} with unnecessary "
        "contention (shrinkable hold time or no shared conflict)"
    )
    return 0


def _run_diff_verify(args) -> int:
    """``repro diff-verify``: bus fast path vs reference, field for field."""
    from .testing import differential_check
    from .workloads.registry import BENCHMARK_ORDER

    if args.programs.strip().lower() == "all":
        programs = tuple(BENCHMARK_ORDER)
    else:
        programs = tuple(p.strip() for p in args.programs.split(",") if p.strip())
    locks_arg = args.locks.strip().lower()
    if locks_arg == "grid":
        from .testing import LOCK_SCHEMES as lock_schemes
    elif locks_arg == "all":
        from .sync import LOCK_SCHEMES as registry

        lock_schemes = tuple(sorted(registry))
    else:
        lock_schemes = tuple(s.strip() for s in args.locks.split(",") if s.strip())
    reports = differential_check(
        programs=programs,
        lock_schemes=lock_schemes,
        models=tuple(m.strip() for m in args.models.split(",") if m.strip()),
        scale=args.scale,
        seed=args.seed,
        progress=lambda r: print(r.summary(), flush=True),
        audit=args.audit,
        trace_cache=_trace_cache_arg(args),
    )
    bad = [r for r in reports if not r.equal or r.violations]
    for r in bad:
        if not r.equal:
            print(f"\n{r.label}: bus fast path diverged from reference:")
            for line in r.diffs:
                print(f"  {line}")
        if r.violations:
            print(f"\n{r.label}: {r.violations} invariant violation(s)")
    print(
        f"\n{len(reports) - len(bad)}/{len(reports)} cells clean"
        + ("" if not bad else f"; {len(bad)} FAILED")
    )
    return 1 if bad else 0



def _machine_config(args, ts):
    """The machine configuration implied by shared CLI flags (None means
    the paper defaults, letting ``simulate`` choose)."""
    no_bus_fast = getattr(args, "no_bus_fast_path", False)
    audit = getattr(args, "audit", False)
    if no_bus_fast or audit:
        from .machine.config import MachineConfig

        return MachineConfig(
            n_procs=ts.n_procs, bus_fast_path=not no_bus_fast, audit=audit
        )
    return None


def _run_batch(args) -> int:
    """``repro batch``: an arbitrary grid through the job runner."""
    import json

    from .consistency import MODEL_NAMES
    from .runner import JobFailure, JobSpec, ResultCache, run_jobs
    from .sync import LOCK_SCHEMES
    from .workloads.registry import BENCHMARK_ORDER, WORKLOADS

    if args.spec_file:
        with open(args.spec_file) as fh:
            specs = [JobSpec.from_dict(d) for d in json.load(fh)]
    else:
        if args.programs.strip().lower() == "all":
            programs = list(BENCHMARK_ORDER)
        else:
            programs = [p.strip() for p in args.programs.split(",") if p.strip()]
        locks = [s.strip() for s in args.locks.split(",") if s.strip()]
        models = [m.strip() for m in args.models.split(",") if m.strip()]
        # validate every name up front, before any simulation starts
        for prog in programs:
            if prog not in WORKLOADS:
                print(
                    f"error: unknown workload {prog!r}; "
                    f"expected one of {sorted(WORKLOADS)}",
                    file=sys.stderr,
                )
                return 2
        for scheme in locks:
            if scheme not in LOCK_SCHEMES:
                print(
                    f"error: unknown lock scheme {scheme!r}; "
                    f"expected one of {sorted(LOCK_SCHEMES)}",
                    file=sys.stderr,
                )
                return 2
        for model in models:
            if model not in MODEL_NAMES:
                print(
                    f"error: unknown consistency model {model!r}; "
                    f"expected one of {MODEL_NAMES}",
                    file=sys.stderr,
                )
                return 2
        specs = [
            JobSpec(
                program=prog,
                scale=args.scale,
                seed=args.seed,
                lock_scheme=scheme,
                consistency=model,
                n_procs=args.procs,
            )
            for prog in programs
            for scheme in locks
            for model in models
        ]

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    tcache = _trace_cache_arg(args)
    batch = run_jobs(
        specs,
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
        manifest_path=args.manifest,
        resume=args.resume,
        trace_cache=tcache,
    )
    width = max((len(s.label()) for s in batch.specs), default=0)
    for spec, outcome in zip(batch.specs, batch.outcomes):
        if isinstance(outcome, JobFailure):
            print(f"{spec.label():<{width}}  FAILED   {outcome.kind}: {outcome.message}")
        else:
            print(
                f"{spec.label():<{width}}  ok       run-time {outcome.run_time:>12,}  "
                f"util {100 * outcome.avg_utilization:5.1f}%  "
                f"lock stall {outcome.stall_pct_lock:5.1f}%"
            )
    print(f"[runner] {batch.stats.summary()}", file=sys.stderr)
    if cache is not None:
        print(f"[cache] {cache.stats.summary()}", file=sys.stderr)
    if tcache:
        print(f"[trace-cache] {tcache.stats.summary()}", file=sys.stderr)
    return 0 if batch.ok() else 1


def _run_serve(args) -> int:
    """``repro serve``: boot the sweep service (or a worker agent)."""
    import asyncio

    from .runner import ResultCache
    from .service import (
        Scheduler,
        ServiceServer,
        SocketTransport,
        StreamAggregator,
        serve_worker,
    )

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    tcache = _trace_cache_arg(args)

    def _addresses(csv: str | None) -> list:
        return [
            SocketTransport.from_address(a.strip())
            for a in (csv or "").split(",")
            if a.strip()
        ]

    peer_transports = _addresses(args.peers)

    async def _worker() -> None:
        server, port, agent = await serve_worker(
            jobs=args.jobs,
            cache=cache,
            trace_cache=tcache,
            host=args.host,
            port=args.port,
            peers=peer_transports,
        )
        print(f"[serve] worker agent {agent.name} on {args.host}:{port}", flush=True)
        if peer_transports:
            print(
                f"[serve] warm-store tier: {len(peer_transports)} peer(s)",
                flush=True,
            )
        try:
            async with server:
                await server.serve_forever()
        finally:
            agent.close()
            await agent.peers.close()

    async def _frontend() -> None:
        transports = _addresses(args.workers)
        scheduler = Scheduler(
            jobs=args.jobs,
            cache=cache,
            trace_cache=tcache,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            deadline=args.deadline,
            transports=transports,
            peers=peer_transports,
            max_queue=args.max_queue,
        )
        aggregator = StreamAggregator(args.manifest, resume=args.resume)
        server = ServiceServer(
            scheduler, host=args.host, port=args.port, aggregator=aggregator
        )
        await server.start()
        mode = f"{len(transports)} remote worker(s)" if transports else (
            "inline" if scheduler.inline else f"{scheduler.jobs} local worker(s)"
        )
        print(f"[serve] sweep service on {server.url} ({mode})", flush=True)
        if peer_transports:
            print(
                f"[serve] warm-store tier: {len(peer_transports)} peer(s)",
                flush=True,
            )
        if args.max_queue is not None:
            print(
                f"[serve] backpressure: shedding beyond {args.max_queue} "
                "queued job(s)",
                flush=True,
            )
        if aggregator.recovered:
            print(
                f"[serve] resumed {aggregator.recovered} manifest record(s)",
                flush=True,
            )
        try:
            await server.serve_forever()
        finally:
            await server.close()
            for t in (*transports, *peer_transports):
                await t.close()

    try:
        asyncio.run(_worker() if args.worker else _frontend())
    except KeyboardInterrupt:
        pass
    return 0


def _run_submit(args) -> int:
    """``repro submit``: one grid request against a running service."""
    import json

    from urllib.error import HTTPError

    from . import BENCHMARK_ORDER
    from .service import ServiceClient

    with ServiceClient(args.url, timeout=args.http_timeout) as client:
        if not client.healthy():
            print(f"error: no sweep service answering at {args.url}", file=sys.stderr)
            return 2
        try:
            if args.spec_file:
                with open(args.spec_file) as fh:
                    specs = json.load(fh)
                response = client.submit(
                    specs=specs, n_shards=args.n_shards, priority=args.priority
                )
            else:
                if args.programs.strip().lower() == "all":
                    programs = list(BENCHMARK_ORDER)
                else:
                    programs = [p.strip() for p in args.programs.split(",") if p.strip()]
                grid = {
                    "programs": programs,
                    "locks": [s.strip() for s in args.locks.split(",") if s.strip()],
                    "models": [m.strip() for m in args.models.split(",") if m.strip()],
                    "scale": args.scale,
                    "seed": args.seed,
                }
                if args.procs is not None:
                    grid["n_procs"] = args.procs
                response = client.submit(
                    grid=grid, n_shards=args.n_shards, priority=args.priority
                )
        except HTTPError as exc:
            if exc.code == 503:
                retry_after = exc.headers.get("Retry-After", "?")
                print(
                    f"error: service overloaded (503); retry in {retry_after}s",
                    file=sys.stderr,
                )
                return 3
            raise
    if args.json:
        print(json.dumps(response, indent=2))
        return 0 if all(r["ok"] for r in response["results"]) else 1
    width = max((len(r["label"]) for r in response["results"]), default=0)
    for r in response["results"]:
        if r["ok"]:
            rt = r.get("result", {}).get("run_time")
            detail = f"run-time {rt:>12,}" if rt is not None else ""
            print(
                f"{r['label']:<{width}}  {r['status']:<8} {detail}  "
                f"[{r['key'][:12]}]"
            )
        else:
            err = r.get("error", {})
            print(
                f"{r['label']:<{width}}  FAILED   "
                f"{err.get('kind')}: {err.get('message')}  [{r['key'][:12]}]"
            )
    print(f"[service] {response['summary']}", file=sys.stderr)
    m = response.get("metrics", {})
    print(
        f"[service] {m.get('cache_hits', 0)} hit(s), "
        f"{m.get('executed', 0)} executed, "
        f"{m.get('dedup_attached', 0)} dedup-attached",
        file=sys.stderr,
    )
    return 0 if all(r["ok"] for r in response["results"]) else 1


def _run_status(args) -> int:
    """``repro status``: snapshot a running service."""
    import json

    from .service import ServiceClient

    with ServiceClient(args.url, timeout=30.0) as client:
        if not client.healthy():
            print(f"error: no sweep service answering at {args.url}", file=sys.stderr)
            return 2
        if args.metrics:
            print(client.metrics(), end="")
            return 0
        snap = client.status()
    if args.json:
        print(json.dumps(snap, indent=2))
        return 0
    m = snap.get("metrics", {})
    backend = (
        f"{snap.get('transports')} remote worker(s)"
        if snap.get("transports")
        else ("inline" if snap.get("inline") else f"{snap.get('jobs')} local worker(s)")
    )
    print(f"service    : {args.url} (up {snap.get('uptime_s', 0):.0f}s, {backend})")
    print(
        f"requests   : {m.get('requests', 0)} "
        f"({m.get('cache_hits', 0)} hits / {m.get('cache_misses', 0)} misses, "
        f"{100 * m.get('hit_rate', 0.0):.0f}% hit rate)"
    )
    print(
        f"execution  : {m.get('executed', 0)} executed, "
        f"{m.get('failed', 0)} failed, {m.get('retries', 0)} retries, "
        f"{m.get('dedup_attached', 0)} dedup-attached"
    )
    print(
        f"in flight  : {m.get('in_flight', 0)} job(s), "
        f"queue depth {m.get('queue_depth', 0)}, "
        f"{m.get('shards_dispatched', 0)} shard(s) dispatched"
    )
    if snap.get("peers") or m.get("remote_hits") or m.get("remote_misses"):
        print(
            f"store tier : {snap.get('peers', 0)} peer(s), "
            f"{m.get('remote_hits', 0)} remote hit(s), "
            f"{m.get('remote_misses', 0)} remote miss(es), "
            f"{m.get('remote_rejects', 0)} rejected"
        )
    if snap.get("max_queue") is not None or m.get("shed"):
        bound = snap.get("max_queue")
        print(
            f"backpress. : {m.get('shed', 0)} shed "
            f"(queue bound {bound if bound is not None else 'off'}), "
            f"{m.get('priority_high', 0)} high-priority"
        )
    if m.get("worker_failures") or m.get("shards_replanned"):
        print(
            f"resilience : {m.get('worker_failures', 0)} worker failure(s), "
            f"{m.get('shards_replanned', 0)} shard(s) re-planned"
        )
    if m.get("frames_binary"):
        print(
            f"transport  : {m.get('frames_binary', 0)} frame(s), "
            f"{m.get('bytes_sent', 0):,} B out / "
            f"{m.get('bytes_received', 0):,} B in"
        )
    for label in ("cache", "trace_cache"):
        store = snap.get(label)
        if store:
            s = store.get("session", {})
            print(
                f"{label:<11}: {store.get('count', 0)} object(s), "
                f"{store.get('size_bytes', 0) / 1024:.0f} KiB at {store.get('root')} "
                f"({s.get('hits', 0)} hits / {s.get('misses', 0)} misses this session)"
            )
    agg = snap.get("aggregator") or {}
    if agg:
        statuses = ", ".join(
            f"{v} {k}" for k, v in sorted(agg.get("statuses", {}).items())
        ) or "none yet"
        print(f"aggregator : {agg.get('cells', 0)} cell(s): {statuses}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
