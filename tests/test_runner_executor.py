"""The batch executor: serial/parallel equivalence, structured failure
capture (a faulty job never aborts the batch), timeouts, retries, the
JSONL manifest, resume, and the suite rewiring on top of it all."""

import json

import pytest

from repro.core import table3, table5
from repro.core.experiment import run_suite
from repro.core.sweep import sweep_procs
from repro.runner import (
    JobFailure,
    JobSpec,
    ResultCache,
    load_records,
    run_jobs,
)

GOOD = JobSpec(program="fullconn", scale=0.05)
GOOD2 = JobSpec(program="qsort", scale=0.05)
#: raises ValueError deep in the worker (unknown workload)
FAULTY = JobSpec(program="does-not-exist", scale=0.05)
#: far too much work for a millisecond-scale timeout
SLOW = JobSpec(program="grav", scale=0.3)


class TestSerialPath:
    def test_outcomes_in_spec_order(self):
        batch = run_jobs([GOOD, GOOD2])
        assert [r.program for r in batch.outcomes] == ["fullconn", "qsort"]
        assert batch.ok()
        assert batch.stats.executed == 2

    def test_equals_direct_run(self):
        batch = run_jobs([GOOD])
        assert batch.outcomes[0] == GOOD.run()


class TestFailureCapture:
    def test_faulty_job_does_not_abort_batch(self, tmp_path):
        manifest = tmp_path / "batch.jsonl"
        batch = run_jobs(
            [GOOD, FAULTY, GOOD2], jobs=2, manifest_path=manifest
        )
        assert not batch.ok()
        failure = batch.outcomes[1]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"
        assert "does-not-exist" in failure.message
        assert failure.attempts == 1
        # the other jobs still completed
        assert batch.outcomes[0].program == "fullconn"
        assert batch.outcomes[2].program == "qsort"
        # and the failure is in the manifest
        statuses = {r["label"]: r["status"] for r in load_records(manifest)}
        assert statuses["does-not-exist/queuing/sc"] == "failed"
        assert statuses["fullconn/queuing/sc"] == "ok"

    def test_attached_cells_of_a_failed_owner_count_as_failed(self, tmp_path):
        bad = JobSpec(program="grav", scale=0.05, lock_kwargs={"bogus": 1})
        manifest = tmp_path / "batch.jsonl"
        batch = run_jobs([bad] * 3, jobs=2, manifest_path=manifest)
        assert all(isinstance(o, JobFailure) for o in batch.outcomes)
        stats = batch.stats
        assert (stats.executed, stats.cached, stats.failed) == (0, 0, 3)
        assert stats.retries == 0
        records = load_records(manifest)
        assert [r["status"] for r in records] == ["failed"] * 3
        assert all("bogus" in r["error"]["message"] for r in records)

    def test_failure_serial_path_too(self):
        batch = run_jobs([FAULTY, GOOD])
        assert isinstance(batch.outcomes[0], JobFailure)
        assert batch.outcomes[1].program == "fullconn"

    def test_timeout_becomes_structured_failure(self):
        batch = run_jobs([SLOW], timeout=0.01)
        failure = batch.outcomes[0]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"

    def test_timeout_in_worker_process(self):
        batch = run_jobs([SLOW], jobs=2, timeout=0.01)
        assert isinstance(batch.outcomes[0], JobFailure)
        assert batch.outcomes[0].kind == "timeout"

    def test_retries_counted_and_bounded(self):
        batch = run_jobs([FAULTY], retries=2)
        assert batch.stats.retries == 2
        assert batch.outcomes[0].attempts == 3

    def test_raise_on_failure(self):
        with pytest.raises(RuntimeError, match="1 job\\(s\\) failed"):
            run_jobs([FAULTY]).raise_on_failure()


class TestManifestAndResume:
    def test_manifest_records_every_outcome(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        run_jobs([GOOD, FAULTY], manifest_path=manifest)
        records = load_records(manifest)
        assert [r["status"] for r in records] == ["ok", "failed"]
        assert all("spec" in r and "key" in r for r in records)
        assert "result" in records[0]
        assert records[1]["error"]["kind"] == "error"

    def test_resume_restores_completed_jobs(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        first = run_jobs([GOOD, FAULTY], manifest_path=manifest)
        second = run_jobs([GOOD, FAULTY], manifest_path=manifest, resume=True)
        assert second.stats.resumed == 1
        assert second.stats.executed == 0  # completed job NOT re-simulated
        assert second.outcomes[0] == first.outcomes[0]
        assert isinstance(second.outcomes[1], JobFailure)  # failures re-run

    def test_resume_requires_manifest(self):
        with pytest.raises(ValueError, match="manifest_path"):
            run_jobs([GOOD], resume=True)

    def test_manifest_tolerates_torn_lines(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        run_jobs([GOOD], manifest_path=manifest)
        with manifest.open("a") as fh:
            fh.write('{"key": "trunca')  # interrupted write
        batch = run_jobs([GOOD], manifest_path=manifest, resume=True)
        assert batch.stats.resumed == 1


class TestCachedBatch:
    def test_second_invocation_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        specs = [GOOD, GOOD2]
        first = run_jobs(specs, cache=cache)
        assert first.stats.executed == 2
        second = run_jobs(specs, cache=cache)
        assert second.stats.executed == 0
        assert second.stats.cached == 2
        assert cache.stats.hits == 2
        assert second.outcomes == first.outcomes

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_jobs([FAULTY], cache=cache)
        assert cache.count() == 0


class TestSuiteRewiring:
    """Acceptance: parallel + cached suite output is byte-identical to
    the serial path, and a warm cache re-runs zero simulations."""

    PROGRAMS = ["fullconn", "qsort"]

    @pytest.fixture(scope="class")
    def serial(self):
        return run_suite(programs=self.PROGRAMS, scale=0.05)

    def test_parallel_suite_results_identical(self, serial, tmp_path):
        cache = ResultCache(tmp_path / "c")
        par = run_suite(programs=self.PROGRAMS, scale=0.05, jobs=4, cache=cache)
        assert par.queuing_sc == serial.queuing_sc
        assert par.ttas_sc == serial.ttas_sc
        assert par.queuing_wo == serial.queuing_wo

    def test_tables_byte_identical_and_cached_rerun_is_free(self, serial, tmp_path):
        cache = ResultCache(tmp_path / "c")
        par = run_suite(programs=self.PROGRAMS, scale=0.05, jobs=2, cache=cache)
        assert table3(suite=par)[0] == table3(suite=serial)[0]
        assert table5(suite=par)[0] == table5(suite=serial)[0]
        assert par.batch.stats.executed == 6  # 2 programs x 3 configs
        warm = run_suite(programs=self.PROGRAMS, scale=0.05, jobs=2, cache=cache)
        assert warm.batch.stats.executed == 0  # zero simulations executed
        assert warm.batch.stats.cached == 6
        assert cache.stats.hits >= 6
        assert table3(suite=warm)[0] == table3(suite=serial)[0]

    def test_suite_raises_on_failure(self):
        with pytest.raises(RuntimeError, match="failed"):
            run_suite(programs=["no-such-benchmark"], scale=0.05)


class TestSweepRewiring:
    def test_parallel_sweep_matches_serial(self, tmp_path):
        serial = sweep_procs("fullconn", [2, 4], scale=0.05)
        par = sweep_procs(
            "fullconn", [2, 4], scale=0.05, jobs=2, cache=ResultCache(tmp_path / "c")
        )
        assert [p.result for p in par] == [p.result for p in serial]
        assert [p.label for p in par] == [p.label for p in serial]


class TestSpecRoundTrip:
    def test_to_from_dict(self):
        spec = JobSpec(
            program="grav",
            scale=0.25,
            seed=3,
            lock_scheme="ttas",
            lock_kwargs={"burst": 2},
            consistency="wo",
            n_procs=6,
            max_events=99,
        )
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_label(self):
        assert GOOD.label() == "fullconn/queuing/sc"
