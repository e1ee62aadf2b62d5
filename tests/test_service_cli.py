"""CLI surface of the sweep service: ``repro submit`` / ``repro
status`` against a live server, the ``serve`` parser contract, and the
``--json`` machine-readable stats satellites."""

import asyncio
import json
import threading

import pytest

from repro.cli import _trace_cache_arg, build_parser, main
from repro.runner import JobSpec, ResultCache
from repro.service import Scheduler, ServiceServer

pytestmark = pytest.mark.service

GOOD = JobSpec(program="fullconn", scale=0.05)


@pytest.fixture
def service(tmp_path):
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    scheduler = Scheduler(cache=ResultCache(tmp_path / "cache"))
    server = ServiceServer(scheduler)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=30)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8642
        assert args.worker is False
        assert args.workers is None
        assert args.backoff == 0.0
        assert args.deadline is None

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit"])
        assert args.url == "http://127.0.0.1:8642"
        assert args.programs == "all"
        assert args.locks == "queuing"

    def test_status_flags(self):
        args = build_parser().parse_args(["status", "--metrics"])
        assert args.metrics is True

    @pytest.mark.parametrize(
        "argv",
        [["serve"], ["serve", "--worker"], ["suite"], ["batch"]],
        ids=["serve", "worker", "suite", "batch"],
    )
    def test_cache_dir_moves_the_trace_cache(self, tmp_path, argv):
        # the same location `repro cache --cache-dir DIR` reads
        root = tmp_path / "X"
        args = build_parser().parse_args(argv + ["--cache-dir", str(root)])
        assert _trace_cache_arg(args).root == root / "traces"
        pinned = tmp_path / "Y"
        args = build_parser().parse_args(
            argv + ["--cache-dir", str(root), "--trace-cache-dir", str(pinned)]
        )
        assert _trace_cache_arg(args).root == pinned


class TestStatsJson:
    def test_cache_stats_json(self, tmp_path, capsys):
        rc = str(tmp_path / "rc")
        tc = str(tmp_path / "tc")
        assert main(["cache", "stats", "--cache-dir", rc, "--trace-cache-dir", tc, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["result_cache"]["root"] == rc
        assert stats["result_cache"]["count"] == 0
        assert stats["trace_cache"]["session"]["hit_rate"] == 0.0

    def test_trace_stats_json(self, tmp_path, capsys):
        tc = str(tmp_path / "tc")
        assert main(["trace", "stats", "--trace-cache-dir", tc, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["root"] == tc
        assert set(stats["session"]) == {"hits", "misses", "puts", "invalidated", "hit_rate"}


class TestSubmitStatus:
    def test_submit_grid_then_warm_resubmit(self, service, capsys):
        argv = [
            "--scale", "0.05",
            "submit", "--url", service.url, "--programs", "fullconn,qsort",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "ok" in captured.out and "run-time" in captured.out
        assert "2 executed" in captured.err
        # the same grid again is answered entirely from the store
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "hit" in captured.out
        # the metrics line is cumulative over the service lifetime:
        # the 2 executions are from the first request, the 2 hits new
        assert "2 hit(s), 2 executed" in captured.err

    def test_submit_json_response(self, service, capsys):
        argv = [
            "--scale", "0.05",
            "submit", "--url", service.url, "--programs", "fullconn", "--json",
        ]
        assert main(argv) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["results"][0]["status"] == "ok"
        assert response["metrics"]["executed"] == 1

    def test_submit_spec_file(self, service, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([GOOD.to_dict()]))
        assert main(["submit", "--url", service.url, "--spec-file", str(spec_file)]) == 0
        assert GOOD.cache_key()[:12] in capsys.readouterr().out

    def test_submit_failure_sets_exit_code(self, service, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        bad = JobSpec(program="does-not-exist", scale=0.05)
        spec_file.write_text(json.dumps([bad.to_dict()]))
        assert main(["submit", "--url", service.url, "--spec-file", str(spec_file)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_status_human_and_json(self, service, capsys):
        main(["--scale", "0.05", "submit", "--url", service.url, "--programs", "fullconn"])
        capsys.readouterr()
        assert main(["status", "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert "requests   : 1" in out
        assert "1 executed" in out
        assert main(["status", "--url", service.url, "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["metrics"]["executed"] == 1

    def test_status_metrics_scrape(self, service, capsys):
        assert main(["status", "--url", service.url, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out

    def test_no_service_answering(self, capsys):
        url = "http://127.0.0.1:9"  # discard port: nothing listens
        assert main(["submit", "--url", url]) == 2
        assert main(["status", "--url", url]) == 2
        err = capsys.readouterr().err
        assert err.count("no sweep service answering") == 2

    def test_status_loads_no_simulator(self, fresh_python):
        """The service commands dispatch before the CLI imports the
        simulator and the analysis layer."""
        probe = (
            "import sys; from repro.cli import main; "
            "rc = main(['status', '--url', 'http://127.0.0.1:9']); "
            "print(rc, [m for m in ('numpy', 'repro.core') if m in sys.modules])"
        )
        assert fresh_python(probe) == "2 []"
