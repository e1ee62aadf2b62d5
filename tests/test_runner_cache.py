"""Correctness of the content-addressed result cache and of the cache
key itself: a hit must equal a fresh simulation, and every field of the
job spec must contribute to the key."""

import hashlib
import json
import re
from dataclasses import replace

import pytest

from repro.machine.config import CacheConfig, MachineConfig, MemoryConfig
from repro.runner import (
    CACHE_FORMAT,
    JobSpec,
    ResultCache,
    result_to_dict,
    traceset_digest,
)
from repro.workloads import generate_trace

SPEC = JobSpec(program="fullconn", scale=0.05, seed=1991)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _split_object(path):
    """A stored object's (header dict, body bytes)."""
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), body


def _write_object(path, header, body):
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


class TestCacheHitEqualsFresh:
    def test_hit_equals_fresh_simulation(self, cache):
        fresh = SPEC.run()
        cache.put(SPEC, fresh)
        hit = cache.get(SPEC)
        assert hit is not None
        assert hit == fresh
        assert hit == SPEC.run()  # deterministic: also equals a re-run

    def test_stats_accounting(self, cache):
        assert cache.get(SPEC) is None
        cache.put(SPEC, SPEC.run())
        assert cache.get(SPEC) is not None
        assert (cache.stats.misses, cache.stats.puts, cache.stats.hits) == (1, 1, 1)

    def test_contains_and_count(self, cache):
        assert SPEC not in cache
        cache.put(SPEC, SPEC.run())
        assert SPEC in cache
        assert cache.count() == 1
        assert cache.size_bytes() > 0

    def test_clear(self, cache):
        cache.put(SPEC, SPEC.run())
        assert cache.clear() == 1
        assert cache.count() == 0
        assert cache.get(SPEC) is None


class TestCacheKeySensitivity:
    """Changing any JobSpec field must change the cache key."""

    BASE = JobSpec(
        program="fullconn",
        scale=0.05,
        seed=1991,
        lock_scheme="queuing",
        consistency="sc",
        machine=MachineConfig(n_procs=4),
    )

    @pytest.mark.parametrize(
        "change",
        [
            {"program": "qsort"},
            {"scale": 0.1},
            {"seed": 7},
            {"lock_scheme": "ttas"},
            {"lock_kwargs": (("burst", 2),)},
            {"consistency": "wo"},
            {"machine": MachineConfig(n_procs=8)},
            {"machine": MachineConfig(n_procs=4, cachebus_buffer_depth=2)},
            {"machine": MachineConfig(n_procs=4, memory=MemoryConfig(access_cycles=9))},
            {"machine": MachineConfig(n_procs=4, cache=CacheConfig(size_bytes=16 * 1024))},
            {"machine": None},
            {"n_procs": 6},
            {"max_events": 10_000},
        ],
        ids=lambda c: next(iter(c)),
    )
    def test_any_field_changes_key(self, change):
        assert replace(self.BASE, **change).cache_key() != self.BASE.cache_key()

    def test_key_is_stable(self):
        assert self.BASE.cache_key() == self.BASE.cache_key()
        clone = JobSpec.from_dict(self.BASE.to_dict())
        assert clone.cache_key() == self.BASE.cache_key()

    def test_lock_kwargs_order_canonical(self):
        a = replace(self.BASE, lock_kwargs={"a": 1, "b": 2})
        b = replace(self.BASE, lock_kwargs={"b": 2, "a": 1})
        assert a.cache_key() == b.cache_key()

    def test_attached_canonical_traceset_does_not_change_key(self):
        ts = generate_trace("fullconn", scale=0.05, seed=1991)
        assert self.BASE.with_traceset(ts).cache_key() == self.BASE.cache_key()

    def test_content_addressed_trace_digest_in_key(self):
        ts1 = generate_trace("fullconn", scale=0.05, seed=1991)
        ts2 = generate_trace("fullconn", scale=0.05, seed=2)
        s1 = JobSpec(program="", traceset=ts1)
        s2 = JobSpec(program="", traceset=ts2)
        assert s1.trace_digest and s2.trace_digest
        assert s1.cache_key() != s2.cache_key()
        # digest is a function of content only
        ts1b = generate_trace("fullconn", scale=0.05, seed=1991)
        assert traceset_digest(ts1b) == traceset_digest(ts1)

    def test_program_or_traceset_required(self):
        with pytest.raises(ValueError, match="program name or a traceset"):
            JobSpec(program="")


class TestStoredBytes:
    def test_get_bytes_is_the_canonical_result_json(self, cache):
        fresh = SPEC.run()
        key = cache.put(SPEC, fresh)
        body = cache.get_bytes(key)
        assert json.loads(body) == result_to_dict(fresh)
        assert body == json.dumps(
            result_to_dict(fresh), sort_keys=True, separators=(",", ":")
        ).encode()
        header, _ = _split_object(cache.path_for(key))
        assert header["sha256"] == hashlib.sha256(body).hexdigest()
        assert header["spec"] == SPEC.to_dict()
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)


class TestCacheInvalidation:
    def test_corrupt_object_is_invalidated(self, cache):
        cache.put(SPEC, SPEC.run())
        path = cache.path_for(SPEC.cache_key())
        path.write_text("{ not json")
        assert cache.get(SPEC) is None
        assert cache.stats.invalidated == 1
        assert not path.exists()  # discarded, not retried forever

    def test_stale_format_is_invalidated(self, cache):
        cache.put(SPEC, SPEC.run())
        path = cache.path_for(SPEC.cache_key())
        header, body = _split_object(path)
        header["format"] = CACHE_FORMAT + 1
        _write_object(path, header, body)
        assert cache.get(SPEC) is None
        assert cache.stats.invalidated == 1

    def test_key_mismatch_is_invalidated(self, cache):
        cache.put(SPEC, SPEC.run())
        path = cache.path_for(SPEC.cache_key())
        header, body = _split_object(path)
        header["key"] = "0" * 64
        _write_object(path, header, body)
        assert cache.get(SPEC) is None
        assert cache.stats.invalidated == 1

    def test_truncated_object_is_invalidated(self, cache):
        """A crash mid-write elsewhere (or disk trouble) can leave a
        prefix of a valid object: parseable failures, not just garbage."""
        cache.put(SPEC, SPEC.run())
        path = cache.path_for(SPEC.cache_key())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.get(SPEC) is None
        assert cache.stats.invalidated == 1
        assert not path.exists()

    def test_malformed_result_payload_is_invalidated(self, cache):
        """Valid JSON whose result decodes with an exception *outside*
        the old (KeyError, TypeError, ValueError) tuple -- e.g. the
        AttributeError from a list where a mapping belongs -- must heal
        like any other corrupt object instead of escaping to the caller."""
        cache.put(SPEC, SPEC.run())
        path = cache.path_for(SPEC.cache_key())
        header, body = _split_object(path)
        result = json.loads(body)
        result["bus_op_counts"] = ["not", "a", "mapping"]
        body = json.dumps(result).encode()
        # re-signed, so the digest passes and the decode must self-heal
        header["sha256"] = hashlib.sha256(body).hexdigest()
        _write_object(path, header, body)
        assert cache.get(SPEC) is None
        assert cache.stats.invalidated == 1
        assert not path.exists()

    def test_edited_digit_is_invalidated_not_served(self, cache):
        """A key addresses a spec, not content: one edited digit in a
        stored result must fail its digest instead of being served."""
        fresh = SPEC.run()
        cache.put(SPEC, fresh)
        path = cache.path_for(SPEC.cache_key())
        data = path.read_bytes()
        match = re.search(rb'("run_time": ?)(\d+)', data)
        edited = b"%d" % (int(match.group(2)) + 1)
        path.write_bytes(data[: match.start(2)] + edited + data[match.end(2) :])
        assert cache.get(SPEC) is None
        assert cache.stats.invalidated == 1
        assert not path.exists()

    def test_parent_layout_object_is_invalidated(self, cache):
        """An object in the single-document layout (no header line, no
        digest) is stale, like any other format mismatch."""
        fresh = SPEC.run()
        key = cache.put(SPEC, fresh)
        path = cache.path_for(key)
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "spec": SPEC.to_dict(),
            "result": result_to_dict(fresh),
        }
        path.write_text(json.dumps(payload, sort_keys=True))
        assert cache.get_bytes(key) is None
        assert cache.stats.invalidated == 1
        assert not path.exists()

    def test_key_outside_the_store_is_a_miss(self, tmp_path, cache):
        """Keys arrive from URLs and peers: one that is not a digest
        names no object, and nothing outside the store is read or
        deleted."""
        cache.put(SPEC, SPEC.run())
        victim = tmp_path / "victim.json"
        victim.write_text("{}")
        assert cache.get_by_key("../victim") is None
        assert cache.get_bytes("../victim") is None
        assert victim.exists()
        assert (cache.stats.misses, cache.stats.invalidated) == (2, 0)

    def test_heals_then_repopulates(self, cache):
        cache.put(SPEC, SPEC.run())
        path = cache.path_for(SPEC.cache_key())
        path.write_text("{ not json")
        assert cache.get(SPEC) is None
        fresh = SPEC.run()
        cache.put(SPEC, fresh)
        assert cache.get(SPEC) == fresh
