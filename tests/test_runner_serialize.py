"""RunResult JSON serialization must be a lossless round trip: the
runner ships every parallel worker's result and every cached result
through this layer, so ``from_json(to_json(r)) == r`` exactly."""

import pytest

from repro.machine.config import (
    BusConfig,
    CacheConfig,
    MachineConfig,
    MemoryConfig,
)
from repro.machine.metrics import ProcMetrics
from repro.runner import (
    JobSpec,
    machine_from_dict,
    machine_to_dict,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.workloads.registry import BENCHMARK_ORDER

#: small but non-trivial scales; every workload exercises locks and, for
#: grav/topopt, barriers
SCALES = {p: 0.05 for p in BENCHMARK_ORDER}


@pytest.fixture(scope="module")
def results():
    return {
        p: JobSpec(program=p, scale=SCALES[p], seed=1991).run()
        for p in BENCHMARK_ORDER
    }


class TestRoundTripAllWorkloads:
    @pytest.mark.parametrize("program", BENCHMARK_ORDER)
    def test_equal_after_round_trip(self, results, program):
        r = results[program]
        assert result_from_json(result_to_json(r)) == r

    @pytest.mark.parametrize("program", BENCHMARK_ORDER)
    def test_every_field_preserved(self, results, program):
        import dataclasses

        r = results[program]
        r2 = result_from_dict(result_to_dict(r))
        for f in dataclasses.fields(r):
            if not f.compare:
                # diagnostics: profiling counters, deliberately excluded
                # from serialization (see RunResult) -- they may differ
                # between byte-identical runs, so persisting them would
                # poison the cache and golden-fixture comparisons
                continue
            assert getattr(r2, f.name) == getattr(r, f.name), f.name

    @pytest.mark.parametrize("program", BENCHMARK_ORDER)
    def test_per_processor_detail_preserved(self, results, program):
        r = results[program]
        r2 = result_from_json(result_to_json(r))
        assert len(r2.proc_metrics) == len(r.proc_metrics)
        for m, m2 in zip(r.proc_metrics, r2.proc_metrics):
            for name in ProcMetrics.__slots__:
                assert getattr(m2, name) == getattr(m, name), name

    def test_derived_metrics_survive(self, results):
        r = results["grav"]
        r2 = result_from_json(result_to_json(r))
        assert r2.avg_utilization == r.avg_utilization
        assert r2.stall_pct_lock == r.stall_pct_lock
        assert r2.lock_stats.avg_waiters_at_transfer == (
            r.lock_stats.avg_waiters_at_transfer
        )
        assert r2.bus_utilization == r.bus_utilization

    def test_int_keyed_maps_restored_with_int_keys(self, results):
        r = results["pdsa"]
        r2 = result_from_json(result_to_json(r))
        assert r.lock_stats.per_lock_acquisitions  # pdsa locks heavily
        assert all(
            isinstance(k, int) for k in r2.lock_stats.per_lock_acquisitions
        )
        assert all(isinstance(k, int) for k in r2.bus_op_counts)
        assert r2.bus_op_counts == r.bus_op_counts


class TestProcMetricsEquality:
    def test_equal_when_fields_match(self):
        a, b = ProcMetrics(0), ProcMetrics(0)
        a.work_cycles = b.work_cycles = 7
        assert a == b

    def test_unequal_on_any_field(self):
        a, b = ProcMetrics(0), ProcMetrics(0)
        b.stall_lock = 1
        assert a != b

    def test_dict_round_trip(self):
        m = ProcMetrics(3)
        m.work_cycles, m.stall_miss, m.completion_time = 11, 4, 20
        assert ProcMetrics.from_dict(m.as_dict()) == m


class TestMachineConfigSerialization:
    def test_default_round_trip(self):
        cfg = MachineConfig()
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg

    def test_custom_round_trip(self):
        cfg = MachineConfig(
            n_procs=5,
            cache=CacheConfig(size_bytes=16 * 1024, assoc=4, write_policy="writethrough"),
            bus=BusConfig(width_bytes=4),
            memory=MemoryConfig(access_cycles=9),
            cachebus_buffer_depth=2,
            batch_records=1,
            coherence="update",
        )
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg

    def test_retired_knobs_accept_only_false(self):
        """``fast_path``, ``segment_kernel`` and ``spin_kernel`` named the
        removed window fast path and collapse kernels: ``False`` (the
        per-record interpreter, now the only one) is accepted and stored
        nowhere; anything else fails loudly."""
        assert MachineConfig(
            fast_path=False,
            bus_fast_path=False,
            segment_kernel=False,
            spin_kernel=False,
        ) == MachineConfig(bus_fast_path=False)
        for name in ("fast_path", "segment_kernel", "spin_kernel"):
            with pytest.raises(ValueError, match=name):
                MachineConfig(**{name: True})
        assert not {"fast_path", "segment_kernel", "spin_kernel"} & set(
            MachineConfig().to_dict()
        )

    def test_descriptions_naming_retired_knobs_still_load(self):
        old = MachineConfig().to_dict()
        old.update(fast_path=True, segment_kernel=True, spin_kernel=True)
        assert MachineConfig.from_dict(old) == MachineConfig()

    def test_grid_spec_cache_key_unchanged(self):
        """Grid specs carry no machine description, so the retired knobs
        leaving ``MachineConfig.to_dict`` keeps their stored results
        addressable."""
        from repro.service import grid_specs

        (spec,) = grid_specs(("grav",), ("queuing",), ("sc",), scale=0.05, seed=1991)
        assert spec.cache_key() == (
            "547354ce9ef324d30abd700474d9bcf068aade235ac431012f286a0a2718d9b2"
        )

    def test_none_tolerant_wrappers(self):
        assert machine_to_dict(None) is None
        assert machine_from_dict(None) is None
        cfg = MachineConfig(n_procs=3)
        assert machine_from_dict(machine_to_dict(cfg)) == cfg
