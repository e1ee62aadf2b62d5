"""Boot one service process of the benchmark over a result store.

``front`` is a ``repro.service.ServiceServer`` (inline scheduler,
``jobs=1``), optionally sharding to ``--workers`` and reading through
``--peers``; ``worker`` is a ``repro.service.serve_worker`` socket agent
speaking binary frames.  The process prints ``ready <port>`` once it
listens and serves until its standard input closes.  Each ``stats``
line on standard input is answered with ``stats <cpu_s> <peak_rss_mb>``
for this process.  With ``--spans FILE`` it records layer spans and
writes them to FILE on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import resource
import sys
import threading

from grid import use_checkout_source


def _stats_line() -> str:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return f"stats {usage.ru_utime + usage.ru_stime:.6f} {usage.ru_maxrss / 1024:.3f}"


async def _serve(args) -> None:
    from repro.runner import ResultCache
    from repro.service import Scheduler, ServiceServer, SocketTransport, serve_worker

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def control() -> None:
        for line in sys.stdin:
            if line.strip() == "stats":
                print(_stats_line(), flush=True)
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=control, name="perfbench-control", daemon=True).start()
    cache = ResultCache(args.store)
    if args.role == "worker":
        server, port, agent = await serve_worker(cache=cache, trace_cache=False)
        print(f"ready {port}", flush=True)
        try:
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            agent.close()
        return

    def addresses(csv: str) -> list:
        return [SocketTransport.from_address(a) for a in csv.split(",") if a]

    workers, peers = addresses(args.workers), addresses(args.peers)
    scheduler = Scheduler(
        jobs=1, cache=cache, trace_cache=False, transports=workers, peers=peers
    )
    server = ServiceServer(scheduler)
    await server.start()
    print(f"ready {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        for transport in workers + peers:
            await transport.close()
        await server.close()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=("front", "worker"))
    p.add_argument("--store", required=True, help="result store directory")
    p.add_argument("--workers", default="", help="host:port,... of worker agents")
    p.add_argument("--peers", default="", help="host:port,... of peer store agents")
    p.add_argument("--spans", help="record layer spans and write them here")
    args = p.parse_args(argv)

    use_checkout_source()
    recorder = None
    if args.spans:
        import spans

        recorder = spans.install()
    try:
        asyncio.run(_serve(args))
    finally:
        if recorder is not None:
            spans.uninstall(recorder)
            recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
