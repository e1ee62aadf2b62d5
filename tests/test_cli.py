"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table_number_validated(self):
        p = build_parser()
        with pytest.raises(SystemExit):
            p.parse_args(["table", "9"])

    def test_global_options(self):
        args = build_parser().parse_args(["--scale", "0.5", "--seed", "7", "figure1"])
        assert args.scale == 0.5
        assert args.seed == 7

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "grav"])
        assert args.locks == "queuing"
        assert args.model == "sc"

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Model Architecture" in out

    def test_ideal_small(self, capsys):
        assert main(["--scale", "0.02", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "grav" in out

    def test_run_small(self, capsys):
        assert main(["--scale", "0.05", "run", "fullconn"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "locks=queuing" in out

    def test_run_with_options(self, capsys):
        assert main(["--scale", "0.05", "run", "qsort", "--locks", "ttas", "--model", "wo"]) == 0
        out = capsys.readouterr().out
        assert "locks=ttas" in out
        assert "model=wo" in out

    def test_generate_then_simulate(self, tmp_path, capsys):
        out_file = str(tmp_path / "t.npz")
        assert main(["--scale", "0.05", "generate", "pverify", "-o", out_file]) == 0
        assert main(["simulate", out_file]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "pverify" in out

    def test_table_1(self, capsys):
        assert main(["--scale", "0.02", "table", "1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_table_4_runs_simulation(self, capsys):
        assert main(["--scale", "0.05", "table", "4"]) == 0
        out = capsys.readouterr().out
        assert "Waiters at Transfer" in out

    def test_unknown_workload_errors(self):
        with pytest.raises(ValueError):
            main(["run", "nosuch"])

    def test_profile_command(self, capsys):
        assert main(["--scale", "0.05", "profile", "pdsa"]) == 0
        out = capsys.readouterr().out
        assert "Per-lock contention profile" in out
        assert "presto.scheduler" in out

    def test_inspect_workload(self, capsys):
        assert main(["--scale", "0.05", "inspect", "fullconn"]) == 0
        out = capsys.readouterr().out
        assert "program 'fullconn'" in out
        assert "12 processors" in out

    def test_inspect_with_dump(self, capsys):
        assert main(["--scale", "0.05", "inspect", "qsort", "--dump", "5"]) == 0
        out = capsys.readouterr().out
        assert "records [0:5]" in out

    def test_inspect_trace_file(self, tmp_path, capsys):
        f = str(tmp_path / "x.npz")
        main(["--scale", "0.05", "generate", "topopt", "-o", f])
        assert main(["inspect", f]) == 0
        assert "topopt" in capsys.readouterr().out

    def test_claims_parser_registered(self):
        args = build_parser().parse_args(["claims"])
        assert args.cmd == "claims"

    def test_locks_choices_track_the_registry(self):
        from repro.sync import LOCK_SCHEMES

        p = build_parser()
        for scheme in LOCK_SCHEMES:
            args = p.parse_args(["run", "grav", "--locks", scheme])
            assert args.locks == scheme
        with pytest.raises(SystemExit):
            p.parse_args(["run", "grav", "--locks", "nosuch"])

    def test_predict_closed_form(self, capsys):
        assert main(["--scale", "0.05", "predict", "qsort", "--no-trace-cache"]) == 0
        out = capsys.readouterr().out
        assert "calibrated on 'queuing'" in out
        # one row per registered scheme
        from repro.sync import LOCK_SCHEMES

        for scheme in LOCK_SCHEMES:
            assert scheme in out

    def test_predict_validate_subset(self, capsys):
        assert (
            main(
                [
                    "--scale",
                    "0.05",
                    "predict",
                    "qsort",
                    "--schemes",
                    "queuing,mcs",
                    "--validate",
                    "--no-trace-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean relative error" in out
        assert "mcs" in out

    def test_predict_unknown_scheme_errors(self, capsys):
        assert main(["predict", "qsort", "--schemes", "nosuch"]) == 2
        assert "unknown lock scheme" in capsys.readouterr().err

    def test_contention_report(self, capsys):
        assert main(["--scale", "0.05", "contention-report", "qsort", "--no-trace-cache"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "lock(s);" in out

    def test_contention_report_with_simulation(self, capsys):
        assert (
            main(
                [
                    "--scale",
                    "0.05",
                    "contention-report",
                    "pverify",
                    "--simulate",
                    "ticket",
                    "--no-trace-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "transfers" in out

    def test_run_profile_prints_stats(self, capsys):
        assert main(["--scale", "0.05", "run", "qsort", "--profile", "3"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "Ordered by: internal time" in out

    def test_predict_json_round_trips(self, capsys):
        """``predict --json`` emits one JSON object that parses back to
        exactly the closed-form predictions the text path prints."""
        import json

        from repro.consistency import SEQUENTIAL
        from repro.machine.system import simulate
        from repro.sync import get_lock_manager
        from repro.sync.predict import calibrate, predict
        from repro.workloads import generate_trace

        assert (
            main(
                [
                    "--scale",
                    "0.05",
                    "predict",
                    "qsort",
                    "--schemes",
                    "queuing,ticket",
                    "--json",
                    "--no-trace-cache",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["program"] == "qsort"
        assert [p["scheme"] for p in doc["predictions"]] == ["queuing", "ticket"]
        # round trip: the serialized numbers are the library's own
        ts = generate_trace("qsort", scale=0.05, seed=1991)
        base = simulate(ts, None, get_lock_manager("queuing"), SEQUENTIAL)
        cal = calibrate(ts, base)
        assert doc["calibration"]["kappa"] == cal.kappa
        for got in doc["predictions"]:
            pred = predict(ts, got["scheme"], cal)
            assert got["lock_share"] == pred.lock_share
            assert got["bus_share"] == pred.bus_share
            assert got["stall_cycles"] == pred.stall_cycles

    def test_predict_validate_json_round_trips(self, capsys):
        assert (
            main(
                [
                    "--scale",
                    "0.05",
                    "predict",
                    "qsort",
                    "--schemes",
                    "queuing",
                    "--validate",
                    "--json",
                    "--no-trace-cache",
                ]
            )
            == 0
        )
        import json

        doc = json.loads(capsys.readouterr().out)
        (row,) = doc["rows"]
        assert row["scheme"] == "queuing"
        assert set(row) >= {
            "predicted_lock_share",
            "observed_lock_share",
            "lock_rel_err",
            "predicted_bus_share",
            "observed_bus_share",
            "bus_rel_err",
        }

    def test_contention_report_json_round_trips(self, capsys):
        """``contention-report --json`` parses back to the library's own
        per-lock verdicts, field for field."""
        import json
        from dataclasses import asdict

        from repro.sync.predict import contention_report
        from repro.workloads import generate_trace

        assert (
            main(
                [
                    "--scale",
                    "0.05",
                    "contention-report",
                    "qsort",
                    "--json",
                    "--no-trace-cache",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["program"] == "qsort"
        assert doc["simulated_scheme"] is None
        ts = generate_trace("qsort", scale=0.05, seed=1991)
        expected = [asdict(v) for v in contention_report(ts)]
        assert doc["verdicts"] == expected
