"""The sweep-service scheduler: cache-first serving, in-flight
deduplication (N concurrent identical requests cost one simulation),
retry/backoff/deadline budgets, and the run_batch facade the executor
delegates to."""

import asyncio

import pytest

from repro.runner import JobFailure, JobSpec, ResultCache
from repro.service import Scheduler, run_batch

pytestmark = pytest.mark.service

GOOD = JobSpec(program="fullconn", scale=0.05)
GOOD2 = JobSpec(program="qsort", scale=0.05)
FAULTY = JobSpec(program="does-not-exist", scale=0.05)


def _submit_many(scheduler, specs):
    try:
        return asyncio.run(scheduler.submit_many(specs))
    finally:
        scheduler.close()


class TestCacheFirst:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cold = _submit_many(Scheduler(cache=cache), [GOOD])
        assert cold[0].status == "ok"
        warm = _submit_many(Scheduler(cache=cache), [GOOD])
        assert warm[0].status == "hit"
        assert warm[0].outcome == cold[0].outcome
        assert warm[0].key == GOOD.cache_key()

    def test_metrics_account_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        sched = Scheduler(cache=cache)
        _submit_many(sched, [GOOD])
        sched2 = Scheduler(cache=cache)
        _submit_many(sched2, [GOOD, GOOD2])
        m = sched2.metrics
        assert m.requests == 2
        assert m.cache_hits == 1
        assert m.cache_misses == 1
        assert m.hit_rate == 0.5
        assert m.stage_latency["total"].total == 2

    def test_no_cache_scheduler_still_serves(self):
        outs = _submit_many(Scheduler(cache=None), [GOOD])
        assert outs[0].status == "ok"
        assert outs[0].outcome.program == "fullconn"


class TestDedup:
    """Acceptance: concurrent duplicate submissions of one cold cell
    run exactly one simulation; every requester gets the identical
    result object."""

    def test_concurrent_duplicates_simulate_once(self, tmp_path):
        # jobs=2 routes misses through the process pool, so the first
        # submission yields at the await and the duplicates genuinely
        # race it to the in-flight table
        sched = Scheduler(jobs=2, cache=ResultCache(tmp_path / "c"))
        outs = _submit_many(sched, [GOOD] * 4)
        assert sched.metrics.executed == 1  # exactly one simulation
        assert sched.metrics.dedup_attached == 3
        assert sorted(o.status for o in outs) == ["attached"] * 3 + ["ok"]
        owner = next(o for o in outs if o.status == "ok")
        for o in outs:
            assert o.outcome is owner.outcome  # the same object, shared
            assert o.key == GOOD.cache_key()

    def test_dedup_without_result_cache(self):
        sched = Scheduler(jobs=2, cache=None)
        outs = _submit_many(sched, [GOOD] * 3)
        assert sched.metrics.executed == 1
        assert sched.metrics.dedup_attached == 2
        assert len({id(o.outcome) for o in outs}) == 1

    def test_distinct_cells_do_not_dedup(self, tmp_path):
        sched = Scheduler(jobs=2, cache=ResultCache(tmp_path / "c"))
        outs = _submit_many(sched, [GOOD, GOOD2])
        assert sched.metrics.executed == 2
        assert sched.metrics.dedup_attached == 0
        assert {o.outcome.program for o in outs} == {"fullconn", "qsort"}

    def test_inflight_table_drains(self, tmp_path):
        sched = Scheduler(jobs=2, cache=ResultCache(tmp_path / "c"))
        _submit_many(sched, [GOOD] * 3)
        assert sched._inflight == {}
        assert sched.metrics.in_flight == 0
        assert sched.metrics.queue_depth == 0


class TestRetryBudgets:
    def test_failure_concludes_with_key_and_attempts(self):
        outs = _submit_many(Scheduler(retries=2), [FAULTY])
        out = outs[0]
        assert out.status == "failed"
        failure = out.outcome
        assert isinstance(failure, JobFailure)
        assert failure.attempts == 3
        assert failure.key == FAULTY.cache_key()
        # the cache key is part of the human-readable failure line, so
        # log lines correlate with manifest records and store paths
        assert failure.key[:12] in str(failure)

    def test_exponential_backoff_accumulates(self):
        sched = Scheduler(retries=3, backoff=0.01)
        _submit_many(sched, [FAULTY])
        # 0.01 + 0.02 + 0.04 between the four attempts
        assert sched.metrics.backoff_seconds == pytest.approx(0.07)
        assert sched.metrics.retries == 3

    def test_backoff_cap_bounds_the_delay(self):
        sched = Scheduler(retries=2, backoff=0.02, backoff_cap=0.03)
        _submit_many(sched, [FAULTY])
        assert sched.metrics.backoff_seconds == pytest.approx(0.02 + 0.03)

    def test_deadline_budget_stops_retrying(self):
        # unbounded retries, but the deadline fires before backoff
        # sleeps can: the job must fail with kind "deadline"
        sched = Scheduler(retries=1000, backoff=30.0, deadline=0.5)
        outs = _submit_many(sched, [FAULTY])
        failure = outs[0].outcome
        assert isinstance(failure, JobFailure)
        assert failure.kind == "deadline"
        assert "deadline budget" in failure.message
        assert sched.metrics.deadline_exceeded == 1
        assert sched.metrics.backoff_seconds == 0.0  # never actually slept

    def test_success_needs_no_budget(self):
        sched = Scheduler(retries=5, backoff=10.0, deadline=300.0)
        outs = _submit_many(sched, [GOOD])
        assert outs[0].status == "ok"
        assert outs[0].attempts == 1


class TestCellOutcome:
    def test_manifest_record_statuses(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        ok = _submit_many(Scheduler(cache=cache), [GOOD])[0]
        rec = ok.manifest_record()
        assert rec["status"] == "ok"
        assert rec["key"] == GOOD.cache_key()
        assert rec["result"] == ok.result_dict
        hit = _submit_many(Scheduler(cache=cache), [GOOD])[0]
        assert hit.manifest_record()["status"] == "cached"
        assert "result" not in hit.manifest_record()
        failed = _submit_many(Scheduler(), [FAULTY])[0]
        rec = failed.manifest_record()
        assert rec["status"] == "failed"
        assert rec["error"]["kind"] == "error"

    def test_attached_failure_records_failed(self):
        bad = JobSpec(program="grav", scale=0.05, lock_kwargs={"bogus": 1})
        owner, attached = _submit_many(Scheduler(jobs=2), [bad, bad])
        assert (owner.status, attached.status) == ("failed", "attached")
        assert not attached.ok
        rec = attached.manifest_record()
        assert rec["status"] == "failed"
        assert "bogus" in rec["error"]["message"]

    def test_status_snapshot(self, tmp_path):
        sched = Scheduler(cache=ResultCache(tmp_path / "c"), retries=1)
        _submit_many(sched, [GOOD])
        snap = sched.status()
        assert snap["jobs"] == 1 and snap["inline"] is True
        assert snap["metrics"]["executed"] == 1
        assert snap["cache"]["count"] == 1
        assert snap["cache"]["session"]["puts"] == 1


class TestRunBatchFacade:
    def test_duplicates_in_one_batch_cost_one_simulation(self, tmp_path):
        sched = Scheduler(jobs=2, cache=ResultCache(tmp_path / "c"))
        batch = run_batch([GOOD, GOOD, GOOD], scheduler=sched)
        sched.close()
        assert batch.stats.executed == 1
        assert batch.stats.cached == 2  # the attached requesters
        assert len({id(o) for o in batch.outcomes}) == 1

    def test_shared_scheduler_survives_batches(self, tmp_path):
        sched = Scheduler(cache=ResultCache(tmp_path / "c"))
        first = run_batch([GOOD], scheduler=sched)
        second = run_batch([GOOD], scheduler=sched)
        sched.close()
        assert first.stats.executed == 1
        assert second.stats.cached == 1
        assert sched.metrics.requests == 2

    def test_outcome_object_matches_run_jobs(self):
        from repro.runner import run_jobs

        assert run_batch([GOOD]).outcomes[0] == run_jobs([GOOD]).outcomes[0]


def _seeded(n: int) -> list[JobSpec]:
    """n distinct cheap specs (distinct seeds -> distinct cache keys)."""
    return [JobSpec(program="fullconn", scale=0.05, seed=3000 + i) for i in range(n)]


class TestLookupPass:
    """Every cell is looked up once, in one synchronous pass; hits are
    settled there, and a key repeated in a batch attaches to its first
    occurrence."""

    @pytest.fixture(scope="class")
    def warm_dir(self, tmp_path_factory):
        """A store holding the first two of ``_seeded(4)``."""
        root = tmp_path_factory.mktemp("warm")
        run_batch(_seeded(2), cache=ResultCache(root))
        return root

    @staticmethod
    def _grid():
        # two hits, two misses, and the first miss again
        hit_a, hit_b, miss_c, miss_d = _seeded(4)
        return [hit_a, miss_c, hit_b, miss_d, miss_c]

    @staticmethod
    def _store(warm_dir, tmp_path) -> ResultCache:
        import shutil

        shutil.copytree(warm_dir, tmp_path / "store")
        return ResultCache(tmp_path / "store")

    def _serve(self, how, cache, jobs=1):
        specs = self._grid()
        if how == "run_jobs":
            from repro.runner import run_jobs
            from repro.service import scheduler as scheduler_mod

            made = []

            class Recording(Scheduler):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    made.append(self)

            original = scheduler_mod.Scheduler
            scheduler_mod.Scheduler = Recording
            try:
                batch = run_jobs(specs, jobs=jobs, cache=cache, trace_cache=False)
            finally:
                scheduler_mod.Scheduler = original
            assert batch.stats.executed == 2
            assert batch.stats.cached == 3
            return made[0], None
        transports = []
        if how == "submit_grid_transport":
            from repro.service import InProcessTransport, WorkerAgent

            agent = WorkerAgent(cache=None, trace_cache=False)
            transports = [InProcessTransport(agent.handle)]
        sched = Scheduler(
            jobs=jobs, cache=cache, trace_cache=False, transports=transports
        )
        method = sched.submit_many if how == "submit_many" else sched.submit_grid
        try:
            outs = asyncio.run(method(specs))
        finally:
            sched.close()
        return sched, outs

    @pytest.mark.parametrize(
        "how", ["submit_many", "submit_grid", "submit_grid_transport", "run_jobs"]
    )
    def test_every_cell_is_looked_up_once(self, how, warm_dir, tmp_path):
        cache = self._store(warm_dir, tmp_path)
        sched, outs = self._serve(how, cache)
        cells = len(self._grid())
        m = sched.metrics
        assert m.requests == cells
        assert m.cache_hits + m.cache_misses == cells
        assert m.stage_latency["lookup"].total == cells
        assert m.stage_latency["total"].total == cells
        assert cache.stats.lookups == cells
        assert m.executed == 2
        if outs is not None:
            assert [o.status for o in outs] == ["hit", "ok", "hit", "ok", "attached"]
            assert outs[4].outcome is outs[1].outcome
            assert m.dedup_attached == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeated_key_attaches_under_any_jobs(self, jobs, warm_dir, tmp_path):
        cache = self._store(warm_dir, tmp_path)
        sched, outs = self._serve("submit_many", cache, jobs=jobs)
        assert sched.metrics.executed == 2
        assert sched.metrics.dedup_attached == 1
        assert outs[4].status == "attached"
        assert outs[4].outcome == outs[1].outcome
        assert sched._inflight == {}
        assert (sched.metrics.in_flight, sched.metrics.queue_depth) == (0, 0)

    def test_all_hit_grid_creates_no_task(self, warm_dir, tmp_path):
        cache = self._store(warm_dir, tmp_path)
        hit_a, hit_b, miss_c, _ = _seeded(4)

        async def tasks_made(sched, specs):
            made = []

            def factory(loop, coro, **kwargs):
                made.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop = asyncio.get_running_loop()
            loop.set_task_factory(factory)
            try:
                outs = await sched.submit_grid(specs)
            finally:
                loop.set_task_factory(None)
            return [o.status for o in outs], len(made)

        sched = Scheduler(cache=cache, trace_cache=False)
        hits = asyncio.run(tasks_made(sched, [hit_a, hit_b, hit_a]))
        assert hits == (["hit", "hit", "hit"], 0)
        # the factory does see the task a miss is served in
        statuses, made = asyncio.run(tasks_made(sched, [hit_a, miss_c]))
        assert statuses == ["hit", "ok"] and made >= 1
