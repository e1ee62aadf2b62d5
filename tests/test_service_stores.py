"""The peer-replicated warm-store tier: worker ``has``/``fetch`` ops,
:class:`PeerStore` read-through + self-healing, verification of what
peers return, and the scheduler's ``remote`` outcome path."""

import asyncio
import io
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.runner import JobSpec, ResultCache
from repro.runner.executor import _execute
from repro.runner.serialize import (
    RESULT_CODEC,
    result_from_bytes,
    result_from_dict,
    result_to_bytes,
    result_to_dict,
)
from repro.service import (
    InProcessTransport,
    PeerStore,
    Scheduler,
    ServiceMetrics,
    WorkerAgent,
)
from repro.service.stores import decode_fetched_result, result_matches_spec
from repro.service.transport import Blob
from repro.trace.cache import TraceCache, trace_key
from repro.trace.records import LOCK, UNLOCK

pytestmark = pytest.mark.service

GOOD = JobSpec(program="fullconn", scale=0.05)
OTHER = JobSpec(program="grav", scale=0.05)


def _simulate(spec: JobSpec):
    payload = _execute(spec, None, None)
    assert payload["ok"], payload
    return result_from_dict(payload["result"])


@pytest.fixture(scope="module")
def good_result():
    return _simulate(GOOD)


@pytest.fixture(scope="module")
def other_result():
    return _simulate(OTHER)


class TestResultCodec:
    def test_binary_codec_round_trips_exactly(self, good_result):
        blob = result_to_bytes(good_result)
        assert isinstance(blob, bytes)
        assert result_from_bytes(blob) == good_result

    def test_codec_is_compact(self, good_result):
        import json

        from repro.runner.serialize import result_to_dict

        as_json = len(json.dumps(result_to_dict(good_result)).encode())
        as_binary = len(result_to_bytes(good_result))
        assert as_binary < as_json


class TestWorkerStoreOps:
    def test_has_batches_over_the_result_store(self, tmp_path, good_result):
        cache = ResultCache(tmp_path / "store")
        cache.put(GOOD, good_result)
        agent = WorkerAgent(cache=cache, trace_cache=False, name="store0")
        key = GOOD.cache_key()
        response = asyncio.run(
            agent.handle({"op": "has", "kind": "result", "keys": [key, "missing"]})
        )
        assert response == {"ok": True, "worker": "store0", "present": [key]}

    def test_fetch_answers_binary_peers_with_blobs(self, tmp_path, good_result):
        cache = ResultCache(tmp_path / "store")
        cache.put(GOOD, good_result)
        agent = WorkerAgent(cache=cache, trace_cache=False)
        response = asyncio.run(
            agent.handle({"op": "fetch", "kind": "result", "key": GOOD.cache_key()})
        )
        assert response["ok"]
        blob = response["payload"]
        assert isinstance(blob, Blob) and blob.codec == RESULT_CODEC
        assert result_from_bytes(blob.data) == good_result

    def test_fetch_miss_is_an_explicit_miss(self, tmp_path):
        agent = WorkerAgent(cache=ResultCache(tmp_path / "s"), trace_cache=False)
        response = asyncio.run(
            agent.handle({"op": "fetch", "kind": "result", "key": "nope"})
        )
        assert response == {
            "ok": False,
            "kind": "miss",
            "message": "no result for nope",
        }


class TestFetchedResultDecoding:
    @pytest.mark.parametrize("shape", ["result-dict", "other-codec", "no-payload"])
    def test_anything_but_a_result_v1_blob_is_refused(self, shape, good_result):
        response = {
            "result-dict": {"ok": True, "result": result_to_dict(good_result)},
            "other-codec": {
                "ok": True,
                "payload": Blob(result_to_bytes(good_result), "bytes"),
            },
            "no-payload": {"ok": True},
        }[shape]
        with pytest.raises(ValueError, match=RESULT_CODEC):
            decode_fetched_result(response)

    def test_spec_check_resolves_name_aliases(self, good_result):
        alias = replace(GOOD, lock_scheme="QUEUING", consistency="sequential")
        assert result_matches_spec(good_result, alias)
        assert not result_matches_spec(good_result, replace(GOOD, consistency="wo"))


def _lying_peer(result):
    """A peer that answers every fetch, whatever the key, with ``result``."""

    async def handler(request):
        return {
            "ok": True,
            "key": request["key"],
            "payload": Blob(result_to_bytes(result), RESULT_CODEC),
        }

    return InProcessTransport(handler)


def _repacked(blob: bytes, edit_desc, edit_values=None) -> bytes:
    """``blob`` with its descriptor (and numeric values) rewritten."""
    (desc_len,) = struct.unpack_from("!I", blob, 4)
    desc = json.loads(blob[8 : 8 + desc_len])
    values = np.frombuffer(blob[8 + desc_len :], dtype=desc["dtype"])
    edit_desc(desc)
    if edit_values is not None:
        values = edit_values(values)
    packed = json.dumps(desc).encode()
    numeric = np.asarray(values, dtype=desc["dtype"]).tobytes()
    return blob[:4] + struct.pack("!I", len(packed)) + packed + numeric


def _float_dtype(desc):
    desc["dtype"] = "<f8"


#: a result peer's malformed payloads: each maps the honest blob to
#: (bytes, codec tag) that must not decode
BLOB_LIES = {
    "truncated": lambda blob: (blob[: len(blob) // 2], RESULT_CODEC),
    "bad_magic": lambda blob: (b"XXXX" + blob[4:], RESULT_CODEC),
    "missing_rows": lambda blob: (
        _repacked(blob, lambda desc: desc.pop("rows")),
        RESULT_CODEC,
    ),
    "wrong_codec": lambda blob: (blob, "result-v0"),
    "float_values": lambda blob: (_repacked(blob, _float_dtype), RESULT_CODEC),
    "trailing_values": lambda blob: (
        _repacked(blob, lambda desc: None, lambda v: np.append(v, 7)),
        RESULT_CODEC,
    ),
}


class TestPeerVerification:
    #: each lie differs from the fullconn/queuing/sc spec in one label
    LIES = {
        "program": {"program": "qsort"},
        "lock_scheme": {"lock_scheme": "ttas"},
        "consistency": {"consistency": "wo"},
        "n_procs": {"n_procs": 2},
    }

    @pytest.mark.parametrize("lie", sorted(BLOB_LIES))
    def test_undecodable_peer_result_is_rejected(self, tmp_path, good_result, lie):
        data, codec = BLOB_LIES[lie](result_to_bytes(good_result))
        with pytest.raises(ValueError):
            decode_fetched_result({"ok": True, "payload": Blob(data, codec)})

        async def liar(request):
            return {"ok": True, "key": request["key"], "payload": Blob(data, codec)}

        local = ResultCache(tmp_path / "local")
        metrics = ServiceMetrics()
        store = PeerStore([InProcessTransport(liar)], cache=local, metrics=metrics)
        key = GOOD.cache_key()
        assert asyncio.run(store.fetch_result(key, spec=GOOD)) is None
        assert not local.has_key(key)
        assert (metrics.remote_rejects, metrics.remote_hits) == (1, 0)

        scheduler = Scheduler(
            cache=ResultCache(tmp_path / "front"),
            trace_cache=False,
            peers=[InProcessTransport(liar)],
        )
        out = asyncio.run(scheduler.submit(GOOD))
        assert out.status == "ok"
        assert out.outcome == good_result
        assert scheduler.metrics.remote_rejects == 1

    @pytest.mark.parametrize("label", sorted(LIES))
    def test_lying_peer_is_rejected_not_healed(self, tmp_path, good_result, label):
        spec = replace(GOOD, n_procs=good_result.n_procs)
        lie = replace(good_result, **self.LIES[label])
        local = ResultCache(tmp_path / "local")
        metrics = ServiceMetrics()
        store = PeerStore([_lying_peer(lie)], cache=local, metrics=metrics)
        key = spec.cache_key()
        assert asyncio.run(store.fetch_result(key, spec=spec)) is None
        assert local.get_by_key(key) is None
        assert metrics.remote_rejects == 1
        assert metrics.remote_hits == 0
        assert metrics.remote_misses == 1

    def test_honest_peer_after_a_liar_still_serves(self, tmp_path, good_result):
        honest_cache = ResultCache(tmp_path / "honest")
        honest_cache.put(GOOD, good_result)
        honest = WorkerAgent(cache=honest_cache, trace_cache=False)
        lie = replace(good_result, program="qsort", lock_scheme="ttas", consistency="wo")
        local = ResultCache(tmp_path / "local")
        metrics = ServiceMetrics()
        store = PeerStore(
            [_lying_peer(lie), InProcessTransport(honest.handle)],
            cache=local,
            metrics=metrics,
        )
        key = GOOD.cache_key()
        assert asyncio.run(store.fetch_result(key, spec=GOOD)) == good_result
        assert local.get_by_key(key) == good_result
        assert (metrics.remote_rejects, metrics.remote_hits) == (1, 1)

    def test_scheduler_simulates_instead_of_serving_a_lie(self, tmp_path, good_result):
        lie = replace(good_result, program="qsort", lock_scheme="ttas", consistency="wo")
        scheduler = Scheduler(
            cache=ResultCache(tmp_path / "front"),
            trace_cache=False,
            peers=[_lying_peer(lie)],
        )
        out = asyncio.run(scheduler.submit(GOOD))
        assert out.status == "ok"
        assert out.outcome == good_result
        assert scheduler.metrics.remote_rejects == 1
        assert scheduler.cache.get(GOOD) == good_result


def _npy(records) -> bytes:
    buf = io.BytesIO()
    np.save(buf, records)
    return buf.getvalue()


def _flip_first_lock(meta_bytes, data_bytes):
    records = np.load(io.BytesIO(data_bytes))
    records["kind"][np.argmax(records["kind"] == LOCK)] = UNLOCK
    return meta_bytes, _npy(records)


def _as_npz(meta_bytes, data_bytes):
    buf = io.BytesIO()
    np.savez(buf, records=np.load(io.BytesIO(data_bytes)))
    return meta_bytes, buf.getvalue()


def _lock_names_as_list(meta_bytes, data_bytes):
    meta = json.loads(meta_bytes)
    meta["layout"]["lock_names"] = list(meta["layout"]["lock_names"].values())
    return json.dumps(meta).encode(), data_bytes


def _two_dimensional(meta_bytes, data_bytes):
    records = np.load(io.BytesIO(data_bytes))
    return meta_bytes, _npy(records.reshape(1, -1))


#: a trace peer's lies: each maps the origin's honest (sidecar, records)
#: bytes to a well-framed object this store must refuse
TRACE_LIES = {
    "flipped_lock": _flip_first_lock,
    "meta_list": lambda meta_bytes, data_bytes: (b"[]", data_bytes),
    "meta_null": lambda meta_bytes, data_bytes: (b"null", data_bytes),
    "records_npz": _as_npz,
    "lock_names_list": _lock_names_as_list,
    "records_2d": _two_dimensional,
}


class TestPeerStore:
    def test_read_through_heals_the_local_cache(self, tmp_path, good_result):
        peer_cache = ResultCache(tmp_path / "peer")
        peer_cache.put(GOOD, good_result)
        peer = WorkerAgent(cache=peer_cache, trace_cache=False)
        local = ResultCache(tmp_path / "local")
        metrics = ServiceMetrics()
        store = PeerStore(
            [InProcessTransport(peer.handle)], cache=local, metrics=metrics
        )
        key = GOOD.cache_key()

        async def scenario():
            present = await store.has([key, OTHER.cache_key()])
            fetched = await store.fetch_result(key, spec=GOOD)
            return present, fetched

        present, fetched = asyncio.run(scenario())
        assert present == {key}
        assert fetched == good_result
        # healed: the next lookup is a plain local hit
        assert local.get_by_key(key) == good_result
        assert metrics.remote_hits == 1

    def test_dead_peer_degrades_to_a_miss(self, tmp_path):
        async def dead(request):
            raise ConnectionError("peer vanished")

        metrics = ServiceMetrics()
        store = PeerStore([InProcessTransport(dead)], metrics=metrics)

        async def scenario():
            present = await store.has(["k1"])
            fetched = await store.fetch_result("k1")
            return present, fetched

        present, fetched = asyncio.run(scenario())
        assert present == set() and fetched is None
        assert metrics.remote_misses == 1

    def test_second_peer_serves_what_the_first_lacks(self, tmp_path, good_result, other_result):
        cache_a = ResultCache(tmp_path / "a")
        cache_a.put(GOOD, good_result)
        cache_b = ResultCache(tmp_path / "b")
        cache_b.put(OTHER, other_result)
        agents = [
            WorkerAgent(cache=cache_a, trace_cache=False),
            WorkerAgent(cache=cache_b, trace_cache=False),
        ]
        store = PeerStore([InProcessTransport(a.handle) for a in agents])

        async def scenario():
            return (
                await store.has([GOOD.cache_key(), OTHER.cache_key()]),
                await store.fetch_result(OTHER.cache_key()),
            )

        present, fetched = asyncio.run(scenario())
        assert present == {GOOD.cache_key(), OTHER.cache_key()}
        assert fetched == other_result

    def test_trace_replication(self, tmp_path):
        # simulate on the peer with a real trace cache, then replicate
        # the traceset by key into an empty local trace cache
        from repro.runner.executor import _TRACE_MEMO

        _TRACE_MEMO.clear()  # earlier cacheless runs must not mask the put
        peer_traces = TraceCache(tmp_path / "peer_traces")
        payload = _execute(GOOD, None, str(peer_traces.root))
        assert payload["ok"]
        peer = WorkerAgent(cache=None, trace_cache=peer_traces)
        key = trace_key(GOOD.program, GOOD.scale, GOOD.seed, GOOD.n_procs)
        assert peer_traces.has_key(key)

        local_traces = TraceCache(tmp_path / "local_traces")
        store = PeerStore(
            [InProcessTransport(peer.handle)], trace_cache=local_traces
        )
        assert asyncio.run(store.fetch_trace(key)) is True
        assert local_traces.has_key(key)
        # the replicated object is byte-identical to the origin's
        assert local_traces.get_bytes(key) == peer_traces.get_bytes(key)


    @pytest.mark.parametrize("lie", sorted(TRACE_LIES))
    def test_lying_trace_peer_is_rejected_not_committed(self, tmp_path, lie):
        """A peer serving a well-framed trace object whose sidecar or
        records are wrong is refused before anything is written locally."""
        from repro.workloads import generate_trace

        origin = TraceCache(tmp_path / "origin")
        ts = generate_trace(GOOD.program, scale=GOOD.scale, seed=GOOD.seed)
        key = origin.put(ts, scale=GOOD.scale, seed=GOOD.seed)
        meta_bytes, data_bytes = TRACE_LIES[lie](*origin.get_bytes(key))

        async def liar(request):
            return {
                "ok": True,
                "meta": Blob(meta_bytes, "json"),
                "records": Blob(data_bytes, "npy"),
            }

        local = TraceCache(tmp_path / "local")
        metrics = ServiceMetrics()
        store = PeerStore([InProcessTransport(liar)], trace_cache=local, metrics=metrics)
        assert asyncio.run(store.fetch_trace(key)) is False
        assert not local.has_key(key)
        assert not local.data_path(key).exists()
        assert (metrics.remote_rejects, metrics.remote_hits) == (1, 0)
        assert local.get(GOOD.program, GOOD.scale, GOOD.seed) is None
        assert local.stats.misses == 1


class TestWorkerPeerPath:
    def test_run_consults_peers_before_simulating(self, tmp_path, good_result):
        origin_cache = ResultCache(tmp_path / "origin")
        origin_cache.put(GOOD, good_result)
        origin = WorkerAgent(cache=origin_cache, trace_cache=False)
        worker = WorkerAgent(
            cache=ResultCache(tmp_path / "empty"),
            trace_cache=False,
            peers=[InProcessTransport(origin.handle)],
        )
        payload = asyncio.run(
            worker.handle({"op": "run", "spec": GOOD.to_dict()})
        )
        assert payload["ok"] and payload["cached"] and payload["remote"]
        assert result_from_dict(payload["result"]) == good_result
        # healed into the worker's own store
        assert worker.cache.get(GOOD) == good_result

    def test_run_shard_prewarms_from_peers(self, tmp_path, good_result):
        origin_cache = ResultCache(tmp_path / "origin")
        origin_cache.put(GOOD, good_result)
        origin = WorkerAgent(cache=origin_cache, trace_cache=False)
        worker = WorkerAgent(
            cache=ResultCache(tmp_path / "empty"),
            trace_cache=False,
            peers=[InProcessTransport(origin.handle)],
        )
        response = asyncio.run(
            worker.handle(
                {"op": "run_shard", "specs": [GOOD.to_dict(), OTHER.to_dict()]}
            )
        )
        worker.close()
        assert response["ok"]
        assert len(response["payloads"]) == 2
        assert all(p["ok"] for p in response["payloads"])
        stats = response["stats"]
        # GOOD was healed from the peer (a cache hit inside run_jobs,
        # never re-simulated); OTHER was actually executed
        assert stats["remote"] == 1
        assert stats["cached"] == 1
        assert stats["executed"] == 1


class TestSchedulerStoreTier:
    def test_submit_serves_remote_and_heals(self, tmp_path, good_result):
        origin_cache = ResultCache(tmp_path / "origin")
        origin_cache.put(GOOD, good_result)
        origin = WorkerAgent(cache=origin_cache, trace_cache=False)
        scheduler = Scheduler(
            cache=ResultCache(tmp_path / "front"),
            trace_cache=False,
            peers=[InProcessTransport(origin.handle)],
        )
        out = asyncio.run(scheduler.submit(GOOD))
        assert out.status == "remote"
        assert out.outcome == good_result
        assert scheduler.metrics.remote_hits == 1
        assert scheduler.metrics.executed == 0
        # healed: the second submit is a plain local hit
        out2 = asyncio.run(scheduler.submit(GOOD))
        assert out2.status == "hit"

    def test_submit_grid_peer_phase_with_remote_workers(self, tmp_path, good_result):
        origin_cache = ResultCache(tmp_path / "origin")
        origin_cache.put(GOOD, good_result)
        origin = WorkerAgent(cache=origin_cache, trace_cache=False)
        worker = WorkerAgent(cache=None, trace_cache=False)
        scheduler = Scheduler(
            cache=ResultCache(tmp_path / "front"),
            trace_cache=False,
            transports=[InProcessTransport(worker.handle)],
            peers=[InProcessTransport(origin.handle)],
        )
        outs = asyncio.run(scheduler.submit_grid([GOOD, OTHER]))
        worker.close()
        statuses = {o.spec.program: o.status for o in outs}
        assert statuses == {"fullconn": "remote", "grav": "ok"}
        assert all(o.ok for o in outs)
        assert scheduler.metrics.remote_hits == 1
        assert scheduler.metrics.executed == 1

    def test_grid_remote_outcome_records_as_cached_in_manifests(
        self, tmp_path, good_result
    ):
        origin_cache = ResultCache(tmp_path / "origin")
        origin_cache.put(GOOD, good_result)
        origin = WorkerAgent(cache=origin_cache, trace_cache=False)
        scheduler = Scheduler(
            cache=ResultCache(tmp_path / "front"),
            trace_cache=False,
            peers=[InProcessTransport(origin.handle)],
        )
        out = asyncio.run(scheduler.submit(GOOD))
        assert out.manifest_record()["status"] == "cached"
