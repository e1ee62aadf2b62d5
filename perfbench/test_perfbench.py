"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They drive ``run.py`` at a tiny scale (a few seconds a workload) and
write only under the benchmark's work directory.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import grid
import run
import spans

TINY = ["--scale", "0.01", "--seconds", "1"]


def bench(*args) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(grid.BENCH_DIR / "run.py"), *args],
        cwd=grid.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.fixture
def workdir():
    path = grid.WORK / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    return path


def report(workload: str) -> dict:
    return json.loads((grid.WORK / workload / "report.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke(workload):
    code, result, out = bench("--workload", workload, *TINY)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= grid.CELLS
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values()), result
    assert "error_share" in out
    if workload == "grid_peer":  # every op: 72 remote hits, nothing executed
        ops = report(workload)["ops"]
        assert ops
        for op in ops:
            assert op["statuses"] == {"remote": grid.CELLS}
            assert op["executed_total"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_confirms_the_stressed_layer(workload):
    # the cold grid's machine share needs the benchmark's own scale
    scale = [] if workload == "grid_cold" else ["--scale", "0.01"]
    code, result, out = bench("--workload", workload, "--seconds", "1", "--trace", "1", *scale)
    assert code == 0, out
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(spans.PER_LAYER)
    stress = report(workload)["stress"]
    assert stress["verdict"] == "pass", stress
    assert "stress pass" in out


def test_corrupted_digest_fails_the_run(workdir):
    table_file = workdir / "corrupt.json"
    code, _, out = bench("--write-expected", str(table_file), "--scale", "0.01")
    assert code == 0, out
    table = json.loads(table_file.read_text())
    label = "qsort/mcs/wo"
    table["cells"][label] = "0" * 64
    table_file.write_text(json.dumps(table))
    code, result, out = bench("--workload", "grid_cold", *TINY, "--expected", str(table_file))
    assert code == 1, out
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0
    assert f"{label} seed {grid.DEFAULT_SEED}: digest" in out


def test_unfit_table_stops_before_set_up(workdir):
    table_file = workdir / "other-seed.json"
    table_file.write_text(grid.expected_path(grid.HELD_OUT_SEED, grid.SCALE).read_text())
    # set-up starts by emptying the run directory: the marker shows it never began
    marker = grid.WORK / "grid_warm" / "marker"
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.touch()
    code, result, out = bench("--workload", "grid_warm", "--expected", str(table_file))
    assert code == 2, out
    assert result == {}  # no result line
    assert f"is for seed {grid.HELD_OUT_SEED}" in out
    assert marker.exists()


def _bindings():
    """Every place a target function lives: class attributes and the
    module attributes of every loaded ``repro`` module."""
    out = {}
    for module_name, attr, *_ in spans.TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            out[(module_name, attr)] = owner.__dict__[method]
    for mod in spans._repro_modules():
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
    return out


def test_traced_run_restores_every_wrapped_function(workdir):
    grid.use_checkout_source()
    from repro.runner import ResultCache
    from repro.service import grid_specs

    for module_name, *_ in spans.TARGETS:
        __import__(module_name)
    before = _bindings()
    recorder = spans.install()
    try:
        assert _bindings() != before  # something really was wrapped
        import repro.runner as runner

        spec = grid_specs(["grav"], scale=0.01)[0]
        store = ResultCache(workdir / "restore")
        store.clear()
        with recorder.op(cells=1):
            batch = runner.run_jobs([spec], jobs=1, cache=store)
        assert batch.ok()
    finally:
        spans.uninstall(recorder)
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []
    # modules first imported during the traced run hold no wrapper either
    assert [k for k, v in after.items() if id(v) in recorder.originals] == []
    names = {s[0] for s in recorder.spans}
    assert {"op", "runner.run_jobs", "machine.setup", "machine.run", "runner.store.put"} <= names


def test_self_time_across_processes():
    # client: op [0, 100] > http [10, 90]; server: submit_grid [20, 80] >
    # store get [30, 40]; worker: handle [50, 60] lies inside submit_grid
    client = {"spans": [["op", 0, 100, -1, {"cells": 72}], ["service.http", 10, 90, 0, None]]}
    server = {"spans": [["service.scheduler", 20, 80, -1, None], ["runner.store.get", 30, 40, 0, None]]}
    worker = {"spans": [["service.worker", 50, 60, -1, None]]}
    rows = spans.link([client, server, worker])
    parents = {r[0]: rows[r[3]][0] if r[3] >= 0 else None for r in rows}
    assert parents == {
        "op": None,
        "service.http": "op",
        "service.scheduler": "service.http",
        "runner.store.get": "service.scheduler",
        "service.worker": "service.scheduler",
    }
    assert all(r[5] == 0 for r in rows)  # every span belongs to the op
    selfs = dict(zip((r[0] for r in rows), spans.self_times(rows)))
    assert selfs == pytest.approx(
        {
            "op": 20e-9,
            "service.http": 20e-9,
            "service.scheduler": 40e-9,
            "runner.store.get": 10e-9,
            "service.worker": 10e-9,
        }
    )


def test_spans_outside_ops_are_dropped():
    client = {"spans": [["service.http", 0, 10, -1, None], ["op", 20, 40, -1, {"cells": 72}]]}
    server = {"spans": [["service.scheduler", 2, 8, -1, None], ["service.scheduler", 22, 38, -1, None]]}
    rows = spans.link([client, server])
    assert [r[5] >= 0 for r in rows] == [False, True, False, True]


def test_tail_has_ten_samples_above():
    samples = [float(i) for i in range(1, 101)]
    pct, value = run.tail(samples)
    assert pct == pytest.approx(90.0)
    assert sum(s > value for s in samples) == 10


def test_benchmark_json_names_match_the_command():
    spec = json.loads((grid.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert len(names) >= 2 and names == [w for w in run.WORKLOADS if w in names]  # a subset, in order
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def test_stored_tables_cover_the_grid():
    for seed in (grid.DEFAULT_SEED, grid.HELD_OUT_SEED):
        table = json.loads(grid.expected_path(seed, grid.SCALE).read_text())
        assert table["seed"] == seed and table["scale"] == grid.SCALE
        assert sorted(table["cells"]) == sorted(grid.labels())
        assert "off" in table["config"]
