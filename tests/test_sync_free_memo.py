"""The sync-free simulation memo of the executor.

A traceset with no LOCK, UNLOCK or BARRIER record never reaches the lock
manager (``repro.trace.sync_free``), so ``_execute`` simulates it once
per (trace digest, machine, model, ``max_events``) and answers every
other lock scheme with a copy relabeled to that scheme.  These tests
prove the certificate with a manager that raises on every entry point,
compare each relabeled payload byte for byte with a fresh simulation of
its own scheme, and check that one sync record denies the memo.
"""

import json

import numpy as np
import pytest

from repro.consistency import get_model
from repro.machine.buffers import LOCK_MEM
from repro.machine.config import MachineConfig
from repro.machine.system import System
from repro.runner import JobFailure, JobSpec, ResultCache, result_to_dict, run_jobs
from repro.runner import executor
from repro.service import grid_specs
from repro.sync import LOCK_SCHEMES, LockManager
from repro.trace import LOCK, UNLOCK, Trace, TraceSet, sync_free, validate_traceset
from repro.trace.layout import LOCK_BASE
from repro.workloads import generate_trace

from .conftest import make_traceset

MODELS = ("sc", "wo")
SCHEMES = sorted(LOCK_SCHEMES)
#: the reference configuration: the bus fast path off
ALL_OFF = MachineConfig(bus_fast_path=False)
#: Topopt tracesets named by provenance: (scale, seed)
TOPOPT = [(0.05, 1991), (0.05, 7), (0.25, 1991), (0.25, 7)]


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _shared_traffic(b, layout):
    """Reads and writes over a few shared lines: misses, cache-to-cache
    supplies, invalidations and write-backs, but no sync record."""
    code = layout.alloc_code(64)
    base = layout.alloc_shared(16 * 64)
    for i in range(40):
        b.block(4, 6, code)
        b.read(base + 16 * ((i * (b.proc + 3)) % 64), reps=2)
        if i % 3 == b.proc % 3:
            b.write(base + 16 * ((i * 7 + b.proc) % 64))


def _spec(named, scheme, model, **kw):
    """The spec of one cell of a ``(provenance, traceset)`` pair: named by
    provenance when it has one, else by content digest."""
    provenance, ts = named
    return JobSpec(
        lock_scheme=scheme, consistency=model, traceset=ts, **provenance, **kw
    )


def _with_lock_pair(ts: TraceSet) -> TraceSet:
    """``ts`` with one LOCK/UNLOCK pair inserted into processor 0's trace."""
    rec = ts[0].records
    pair = np.zeros(2, dtype=rec.dtype)
    pair["kind"] = (LOCK, UNLOCK)
    pair["addr"] = LOCK_BASE
    mid = len(rec) // 2
    records = np.concatenate(
        [rec[:mid], pair[:1], rec[mid : mid + 8], pair[1:], rec[mid + 8 :]]
    )
    traces = [Trace(records, 0, ts.program)] + [ts[p] for p in range(1, ts.n_procs)]
    out = TraceSet(traces, ts.layout, program="topopt-locked")
    validate_traceset(out)
    return out


@pytest.fixture(autouse=True)
def empty_memo():
    executor._SYNC_FREE_MEMO.clear()
    yield
    executor._SYNC_FREE_MEMO.clear()


@pytest.fixture
def sim_runs(monkeypatch):
    """Counts ``System.run`` calls (one per simulation)."""
    count = [0]
    real = System.run

    def counting(self):
        count[0] += 1
        return real(self)

    monkeypatch.setattr(System, "run", counting)
    return count


@pytest.fixture(scope="module")
def tracesets():
    """Every sync-free traceset under test, as (provenance, traceset)."""
    out = []
    for scale, seed in TOPOPT:
        provenance = {"program": "topopt", "scale": scale, "seed": seed}
        out.append((provenance, generate_trace("topopt", scale=scale, seed=seed)))
    shared = make_traceset([_shared_traffic] * 4, program="shared-traffic")
    out.append(({}, shared))
    return out


class TestCertificate:
    def test_topopt_and_hand_built_are_sync_free(self, tracesets):
        assert all(sync_free(ts) for _, ts in tracesets)

    def test_a_lock_pair_breaks_the_certificate(self, tracesets):
        assert not sync_free(_with_lock_pair(tracesets[0][1]))

    @pytest.mark.parametrize("config", ["production", "all-off"])
    def test_tripwire_manager_is_never_reached(self, tracesets, config):
        """A manager whose every entry point raises: the certificate says
        no sync-free simulation can call it."""

        def trip(*args, **kwargs):
            raise AssertionError("a sync-free simulation reached the lock manager")

        class Tripwire(LockManager):
            name = "tripwire"
            acquire = release = supplier_for_line = trip
            on_lock_rfo = on_lock_inval = state_of = trip

        for _, ts in tracesets:
            machine = MachineConfig(n_procs=ts.n_procs)
            if config == "all-off":
                machine = ALL_OFF.with_procs(ts.n_procs)
            for model in MODELS:
                result = System(ts, machine, Tripwire(), get_model(model)).run()
                assert result.lock_scheme == "tripwire"
                assert result.lock_stats.acquisitions == 0


class TestMemo:
    def test_relabeled_payloads_equal_a_fresh_run_of_every_scheme(
        self, tracesets, sim_runs
    ):
        for named in tracesets:
            executor._SYNC_FREE_MEMO.clear()
            before = sim_runs[0]
            payloads = {}
            for scheme in SCHEMES:
                for model in MODELS:
                    out = executor._execute(_spec(named, scheme, model), None)
                    assert out["ok"], out
                    payloads[scheme, model] = out["result"]
            # one simulation per model; every other scheme was relabeled
            assert sim_runs[0] - before == len(MODELS)
            for (scheme, model), payload in payloads.items():
                fresh = result_to_dict(_spec(named, scheme, model).run())
                assert payload["lock_scheme"] == scheme
                assert _canon(payload) == _canon(fresh), (named[0], scheme, model)

    def test_payloads_share_no_mutable_structure(self, tracesets):
        named = tracesets[0]
        first = executor._execute(_spec(named, "queuing", "sc"), None)["result"]
        second = executor._execute(_spec(named, "ttas", "sc"), None)["result"]
        third = executor._execute(_spec(named, "mcs", "sc"), None)["result"]
        second["proc_metrics"][0]["work_cycles"] = -1
        second["meta"]["bus_grants"] = -1
        assert third["proc_metrics"] == first["proc_metrics"]
        assert third["meta"] == first["meta"]

    def test_memo_key_separates_machine_model_and_max_events(
        self, tracesets, sim_runs
    ):
        named = tracesets[0]
        machine = ALL_OFF.with_procs(named[1].n_procs)
        for kw in ({}, {"machine": machine}, {"max_events": 10**8}):
            for model in MODELS:
                executor._execute(_spec(named, "queuing", model, **kw), None)
                executor._execute(_spec(named, "ttas", model, **kw), None)
        assert sim_runs[0] == 3 * len(MODELS)

    def test_one_lock_pair_denies_the_memo(self, tracesets, sim_runs):
        named = ({}, _with_lock_pair(tracesets[0][1]))
        payloads = []
        for scheme in SCHEMES:
            out = executor._execute(_spec(named, scheme, "sc"), None)
            assert out["ok"], out
            fresh = result_to_dict(_spec(named, scheme, "sc").run())
            assert _canon(out["result"]) == _canon(fresh)
            payloads.append(dict(out["result"], lock_scheme=""))
        assert sim_runs[0] == 2 * len(SCHEMES)  # _execute simulated every one
        assert not executor._SYNC_FREE_MEMO
        assert len({_canon(p) for p in payloads}) > 1

    def test_a_run_that_touched_a_lock_is_not_memoized(self, tracesets, monkeypatch):
        real = JobSpec.run

        def lock_granting_run(self, traceset=None):
            result = real(self, traceset)
            result.bus_op_counts[LOCK_MEM] = 1
            return result

        monkeypatch.setattr(JobSpec, "run", lock_granting_run)
        executor._execute(_spec(tracesets[0], "queuing", "sc"), None)
        assert not executor._SYNC_FREE_MEMO

    def test_bad_lock_arguments_still_fail(self, tracesets):
        # the first spec fills the memo the other two would hit
        good = _spec(tracesets[0], "queuing", "sc")
        bad_kwargs = _spec(tracesets[0], "queuing", "sc", lock_kwargs={"bogus": 1})
        bad_scheme = _spec(tracesets[0], "nosuch", "sc")
        batch = run_jobs([good, bad_kwargs, bad_scheme], trace_cache=False)
        assert batch.stats.executed == 1 and batch.stats.failed == 2
        kwargs_failure, scheme_failure = batch.outcomes[1:]
        assert isinstance(kwargs_failure, JobFailure)
        assert "unexpected keyword argument 'bogus'" in kwargs_failure.message
        assert isinstance(scheme_failure, JobFailure)
        assert "unknown lock scheme 'nosuch'" in scheme_failure.message

    def test_topopt_grid_row_simulates_once_per_model(self, tmp_path, sim_runs):
        cache = ResultCache(tmp_path / "store")
        specs = grid_specs(
            ["topopt"],
            ("queuing", "ttas", "mcs", "clh", "ticket", "backoff"),
            MODELS,
            scale=0.05,
        )
        batch = run_jobs(specs, cache=cache, trace_cache=False)
        assert batch.stats.executed == 12 and batch.ok()
        assert cache.stats.puts == 12
        assert sim_runs[0] == len(MODELS)
        for spec in specs:  # each cell stored under its own key and label
            assert cache.get(spec).lock_scheme == spec.lock_scheme
