"""Peer-replicated warm-store tier over the service transport.

The content-addressed stores (:class:`~repro.runner.cache.ResultCache`,
:class:`~repro.trace.cache.TraceCache`) make replication trivial: a key
*is* its object, on any host, forever.  A :class:`PeerStore` turns a
list of transports -- worker agents, or a designated store node, all
speaking the same ``has``/``fetch`` ops -- into one read-through tier:

* ``has`` batches existence probes (one round trip per peer for a
  whole grid);
* ``fetch`` pulls an object from the first peer holding it and
  **self-heals it into the local store**, so the next lookup for that
  key is a plain local hit and every key is simulated at most once per
  fleet.

Results travel as compact ``result-v1`` blobs, traces as their raw
``json`` sidecar and ``npy`` records blobs.  A fetched result is
decoded and checked against the spec it was asked for before it is
healed or served: a peer whose payload does not decode, or whose result
names another program, lock scheme, consistency model or processor
count, is skipped and counted in ``remote_rejects``.  A fetched trace
is validated before it is committed
(:meth:`~repro.trace.cache.TraceCache.put_bytes`); a peer whose trace
fails is skipped and counted the same way.  A dead or stale peer is
skipped, never fatal: the store tier is an optimization layer on top of
simulation, and simulation always remains the fallback.
"""

from __future__ import annotations

from ..consistency import get_model
from ..runner.serialize import RESULT_CODEC, result_from_bytes
from .transport import Blob

__all__ = ["PeerStore", "decode_fetched_result", "result_matches_spec"]


def decode_fetched_result(response: dict):
    """A fetch response's ``result-v1`` payload, decoded.

    Raises ``ValueError`` when the payload is not a :class:`Blob`
    tagged ``result-v1``.
    """
    payload = response.get("payload")
    if not isinstance(payload, Blob) or payload.codec != RESULT_CODEC:
        raise ValueError(f"fetch response carries no {RESULT_CODEC} payload")
    return result_from_bytes(payload.data)


def result_matches_spec(result, spec) -> bool:
    """Whether ``result`` labels itself as an outcome of ``spec``.

    Names compare canonically (the registries are lowercase, and model
    aliases such as ``weak`` resolve through ``get_model``); the program
    only when the spec names one, ``n_procs`` only when the spec sets it.
    """
    try:
        model = get_model(spec.consistency).name
    except ValueError:  # no such model: nothing can be its outcome
        return False
    return (
        result.lock_scheme == spec.lock_scheme.lower()
        and result.consistency == model
        and (not spec.program or result.program == spec.program.lower())
        and (spec.n_procs is None or result.n_procs == spec.n_procs)
    )


class PeerStore:
    """Read-through view of peer stores, healing into local ones.

    ``transports`` are consulted in order -- put the designated store
    node first if there is one.  ``cache`` / ``trace_cache`` are the
    local stores fetched objects heal into (either may be ``None``).
    ``metrics`` (a :class:`~repro.service.metrics.ServiceMetrics`)
    receives ``remote_hits`` / ``remote_misses`` / ``remote_rejects``
    counts.
    """

    def __init__(
        self,
        transports,
        cache=None,
        trace_cache=None,
        metrics=None,
    ) -> None:
        self.transports = list(transports)
        self.cache = cache
        self.trace_cache = trace_cache
        self.metrics = metrics

    def __bool__(self) -> bool:
        return bool(self.transports)

    def _count(self, name: str, delta: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, delta)

    # ------------------------------------------------------------------
    async def has(self, keys, kind: str = "result") -> set:
        """Union of keys any peer holds (one batched probe per peer)."""
        keys = list(keys)
        present: set[str] = set()
        missing = set(keys)
        for transport in self.transports:
            if not missing:
                break
            try:
                response = await transport.call(
                    {"op": "has", "kind": kind, "keys": sorted(missing)}
                )
            except Exception:
                continue  # dead peer: the tier degrades, never fails
            if not response.get("ok"):
                continue
            found = set(response.get("present", ()))
            present |= found
            missing -= found
        return present

    async def fetch_result(self, key: str, spec=None):
        """Fetch one result by key; heals into the local cache.

        ``spec`` (when known) lets the healed object carry its full
        self-describing spec, exactly as if it had been simulated here,
        and a peer whose result does not match it is skipped.  Returns
        the :class:`RunResult` or ``None`` if no peer holds it.
        """
        for transport in self.transports:
            try:
                response = await transport.call(
                    {"op": "fetch", "kind": "result", "key": key}
                )
            except Exception:
                continue  # dead peer: the tier degrades, never fails
            if not response.get("ok"):
                continue
            try:
                result = decode_fetched_result(response)
            except ValueError:
                # truncated, foreign or wrongly tagged payload
                self._count("remote_rejects")
                continue
            if spec is not None and not result_matches_spec(result, spec):
                self._count("remote_rejects")
                continue
            if self.cache is not None and spec is not None:
                self.cache.put(spec, result)
            self._count("remote_hits")
            return result
        self._count("remote_misses")
        return None

    async def fetch_trace(self, key: str) -> bool:
        """Fetch one traceset by key into the local trace cache.

        Returns ``True`` when the object was replicated locally (the
        caller then loads it with a plain cache lookup, mmap and all).
        A peer whose object does not match the key or fails trace
        validation is skipped and counted in ``remote_rejects``.
        """
        if self.trace_cache is None:
            return False
        for transport in self.transports:
            try:
                response = await transport.call(
                    {"op": "fetch", "kind": "trace", "key": key}
                )
                if not response.get("ok"):
                    continue
                meta, records = response["meta"], response["records"]
                if not isinstance(meta, Blob) or not isinstance(records, Blob):
                    continue
            except Exception:
                continue
            try:
                self.trace_cache.put_bytes(key, meta.data, records.data)
            except ValueError:
                # stale, malformed or invalid object: refused before commit
                self._count("remote_rejects")
                continue
            except Exception:  # a local write failure: simulate instead
                continue
            self._count("remote_hits")
            return True
        self._count("remote_misses")
        return False

    async def close(self) -> None:
        for transport in self.transports:
            try:
                await transport.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
