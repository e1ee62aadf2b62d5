"""Content-addressed on-disk trace cache.

A ``(program, scale, seed, n_procs)`` trace is deterministic and
immutable, so -- exactly like a simulation result in
:class:`repro.runner.cache.ResultCache` -- it is worth generating once,
ever.  The paper's own pipeline has this shape: MPTrace tapes are
collected offline and then consumed by every machine/lock/consistency
configuration.

Layout (git-style fan-out, sibling of the result cache)::

    <root>/<key[:2]>/<key>.npy     # all processors' records, concatenated
    <root>/<key[:2]>/<key>.json    # sidecar: formats, key, per-proc counts,
                                   # address-layout + traceset metadata

The records live in a plain ``.npy`` file -- not the ``.npz`` archive of
:mod:`repro.trace.encode` -- because ``np.load(..., mmap_mode="r")``
cannot memory-map members of a zip archive.  With a flat ``.npy``, every
pool worker that loads the same cached trace shares the same physical
pages instead of each holding a private copy.

The cache key is the SHA-256 of the canonical JSON of the generation
parameters *plus both format versions* (the encode-layer
:data:`~repro.trace.encode.FORMAT_VERSION` and this module's
:data:`TRACE_CACHE_FORMAT`), so bumping either version orphans old
objects rather than reinterpreting them.  Objects whose sidecar carries
a different version (or is corrupt, truncated, or mismatched with its
address) are *invalidated* -- counted, deleted, treated as a miss --
never trusted and never raised to the caller.

Writes are atomic and ordered: the ``.npy`` is published first, the
sidecar last, so a reader that finds a sidecar always finds the data it
describes; a crash between the two leaves an orphan ``.npy`` that the
next ``put`` simply overwrites.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encode import FORMAT_VERSION
from .layout import AddressLayout
from .records import RECORD_DTYPE, Trace, TraceSet
from .validate import validate_traceset

__all__ = [
    "TRACE_CACHE_FORMAT",
    "TraceCacheStats",
    "TraceCache",
    "default_trace_cache_dir",
    "resolve_trace_cache",
    "trace_key",
]

#: bump to invalidate every previously cached trace object (e.g. after a
#: change to the on-disk layout of this module's objects)
TRACE_CACHE_FORMAT = 1

_FALSY = frozenset({"", "0", "off", "no", "false"})
_TRUTHY = frozenset({"1", "on", "yes", "true"})


def default_trace_cache_dir() -> Path:
    """``$REPRO_TRACE_CACHE_DIR`` if set, else ``<result cache>/traces``."""
    env = os.environ.get("REPRO_TRACE_CACHE_DIR")
    if env:
        return Path(env)
    base = os.environ.get("REPRO_CACHE_DIR")
    if base:
        return Path(base) / "traces"
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro" / "traces"


def trace_key(
    program: str,
    scale: float = 1.0,
    seed: int = 1991,
    n_procs: int | None = None,
) -> str:
    """Stable content address for one generated traceset.

    Both format versions are part of the preimage: a trace encoded under
    an older layout can never satisfy a lookup from a newer one.
    """
    canon = json.dumps(
        {
            "cache_format": TRACE_CACHE_FORMAT,
            "encode_format": FORMAT_VERSION,
            "program": program,
            "scale": scale,
            "seed": seed,
            "n_procs": n_procs,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class TraceCacheStats:
    """Hit/miss/invalidation accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({100 * self.hit_rate:.0f}% hit rate), {self.puts} stored, "
            f"{self.invalidated} invalidated"
        )


class TraceCache:
    """Content-addressed store of generated :class:`TraceSet`s.

    ``mmap_mode`` controls how cached record arrays are loaded;
    the default ``"r"`` maps them read-only so concurrent processes
    share pages.  Pass ``mmap_mode=None`` to read private in-memory
    copies instead.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        mmap_mode: str | None = "r",
    ) -> None:
        self.root = Path(root) if root is not None else default_trace_cache_dir()
        self.mmap_mode = mmap_mode
        self.stats = TraceCacheStats()

    # ------------------------------------------------------------------
    def data_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npy"

    def meta_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _discard(self, key: str) -> None:
        for path in (self.meta_path(key), self.data_path(key)):
            try:
                path.unlink()
            except OSError:
                pass

    def _invalidate(self, key: str) -> None:
        self.stats.invalidated += 1
        self.stats.misses += 1
        self._discard(key)

    # ------------------------------------------------------------------
    def get(
        self,
        program: str,
        scale: float = 1.0,
        seed: int = 1991,
        n_procs: int | None = None,
    ) -> TraceSet | None:
        """The cached traceset, or ``None`` on a miss.

        Corrupt, truncated, or format-stale objects (including version
        mismatches from an older or newer writer) are deleted and
        counted in ``stats.invalidated`` -- never raised.
        """
        key = trace_key(program, scale, seed, n_procs)
        try:
            meta = json.loads(self.meta_path(key).read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self._invalidate(key)
            return None
        try:
            ts = self._load(key, meta, program)
        except Exception:
            self._invalidate(key)
            return None
        self.stats.hits += 1
        return ts

    def _load(self, key: str, meta: dict, program: str) -> TraceSet:
        if (
            meta["cache_format"] != TRACE_CACHE_FORMAT
            or meta["encode_format"] != FORMAT_VERSION
        ):
            raise ValueError("trace object written under a different format version")
        if meta["key"] != key or meta["program"] != program:
            raise ValueError("stale or mismatched trace object")
        records = np.load(self.data_path(key), mmap_mode=self.mmap_mode)
        return _assemble(meta, records)

    def has_key(self, key: str) -> bool:
        """Cheap existence probe (peer ``has`` ops): a committed sidecar
        implies its data file exists (data is published first)."""
        return self.meta_path(key).exists()

    def get_bytes(self, key: str) -> tuple[bytes, bytes] | None:
        """Raw ``(sidecar, data)`` bytes for replication, or ``None``.

        This is the store tier's bulk read: the object travels to a peer
        exactly as it sits on disk (the ``.npy`` is already a compact
        binary array), and the receiving :meth:`put_bytes` re-validates
        before committing.  Unreadable or mismatched objects are
        invalidated like any other failed load.
        """
        try:
            meta_bytes = self.meta_path(key).read_bytes()
            meta = json.loads(meta_bytes)
            if (
                meta["cache_format"] != TRACE_CACHE_FORMAT
                or meta["encode_format"] != FORMAT_VERSION
                or meta["key"] != key
            ):
                raise ValueError("stale or mismatched trace object")
            data_bytes = self.data_path(key).read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self._invalidate(key)
            return None
        self.stats.hits += 1
        return meta_bytes, data_bytes

    def put_bytes(self, key: str, meta_bytes: bytes, data_bytes: bytes) -> str:
        """Commit a replicated object fetched from a peer.

        The sidecar is checked against ``key`` and both format versions,
        and the records are decoded, assembled and validated
        (:func:`~repro.trace.validate.validate_traceset`), all before
        anything touches disk -- a peer can be stale, corrupt or lying,
        never this store.  Raises ``ValueError`` (a
        :class:`~repro.trace.validate.TraceValidationError` for records
        that break a trace invariant) on a refused object, whatever is
        wrong with its bytes.
        """
        try:
            meta = json.loads(meta_bytes)
            if not isinstance(meta, dict) or (
                meta.get("cache_format") != TRACE_CACHE_FORMAT
                or meta.get("encode_format") != FORMAT_VERSION
                or meta.get("key") != key
            ):
                raise ValueError(
                    f"replicated trace object does not match key {key!r}"
                )
            # a bare .npy, as put() writes it: never an archive or a pickle
            records = np.lib.format.read_array(io.BytesIO(data_bytes))
            validate_traceset(_assemble(meta, records))
        except ValueError:
            raise
        except Exception as exc:
            raise ValueError(f"malformed replicated trace object: {exc!r}") from exc
        directory = self.data_path(key).parent
        directory.mkdir(parents=True, exist_ok=True)
        # same commit order as put(): data first, sidecar last
        self._write_atomic(
            self.data_path(key), lambda fh: fh.write(data_bytes), "wb"
        )
        self._write_atomic(
            self.meta_path(key), lambda fh: fh.write(meta_bytes), "wb"
        )
        self.stats.puts += 1
        return key

    # ------------------------------------------------------------------
    def put(
        self,
        ts: TraceSet,
        scale: float = 1.0,
        seed: int = 1991,
        n_procs: int | None = None,
    ) -> str:
        """Store ``ts`` under its generation parameters; returns the key.

        The caller asserts that ``ts`` *is* the canonical trace for
        ``(ts.program, scale, seed, n_procs)`` -- the same contract as
        attaching a pre-generated traceset to a provenance-named
        :class:`~repro.runner.spec.JobSpec`.
        """
        key = trace_key(ts.program, scale, seed, n_procs)
        traces = sorted(ts.traces, key=lambda t: t.proc)
        if traces:
            records = np.concatenate([t.records for t in traces])
        else:
            records = np.empty(0, dtype=RECORD_DTYPE)
        meta = {
            "cache_format": TRACE_CACHE_FORMAT,
            "encode_format": FORMAT_VERSION,
            "key": key,
            "program": ts.program,
            "n_procs": ts.n_procs,
            "counts": [len(t.records) for t in traces],
            "layout": ts.layout.to_dict(),
            "meta": ts.meta,
        }
        directory = self.data_path(key).parent
        directory.mkdir(parents=True, exist_ok=True)
        # data first, sidecar (the commit point) last, both atomically
        self._write_atomic(
            self.data_path(key), lambda fh: np.save(fh, records), "wb"
        )
        self._write_atomic(
            self.meta_path(key), lambda fh: json.dump(meta, fh, sort_keys=True), "w"
        )
        self.stats.puts += 1
        return key

    def _write_atomic(self, path: Path, write, mode: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, mode) as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def _object_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(p for ext in ("json", "npy") for p in self.root.glob(f"*/*.{ext}"))

    def count(self) -> int:
        """Number of cached tracesets (committed sidecars)."""
        return sum(1 for p in self._object_files() if p.suffix == ".json")

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._object_files())

    def clear(self, older_than_days: float | None = None) -> int:
        """Delete cached traces; returns how many tracesets were removed.

        ``older_than_days`` garbage-collects only objects whose sidecar
        mtime is older than that many days (the sidecar is the commit
        point, so its age is the object's age); orphan data files past
        the cutoff go too.
        """
        files = self._object_files()
        if older_than_days is not None:
            import time

            cutoff = time.time() - float(older_than_days) * 86400.0
            sidecars = {p.with_suffix("") for p in files if p.suffix == ".json"}
            old = []
            for p in files:
                if p.suffix == ".npy" and p.with_suffix("") in sidecars:
                    continue  # paired data goes when its sidecar does
                try:
                    if p.stat().st_mtime >= cutoff:
                        continue
                except OSError:
                    continue
                old.append(p)
                if p.suffix == ".json":
                    old.append(p.with_suffix(".npy"))
            files = old
        n = sum(1 for p in files if p.suffix == ".json")
        for p in files:
            try:
                p.unlink()
            except OSError:
                pass
        for d in sorted(self.root.glob("*")):
            try:
                d.rmdir()
            except OSError:
                pass
        return n

    def describe(self) -> str:
        """Multi-line human-readable report (``repro trace stats``)."""
        return (
            f"trace cache directory : {self.root}\n"
            f"cached tracesets      : {self.count()}\n"
            f"total size            : {self.size_bytes() / (1024 * 1024):.1f} MiB\n"
            f"this session          : {self.stats.summary()}"
        )

    def stats_dict(self) -> dict:
        """JSON-ready report (``repro trace stats --json``, the service
        ``/status`` endpoint, worker ``stats`` ops)."""
        return {
            "root": str(self.root),
            "count": self.count(),
            "size_bytes": self.size_bytes(),
            "session": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "puts": self.stats.puts,
                "invalidated": self.stats.invalidated,
                "hit_rate": round(self.stats.hit_rate, 4),
            },
        }


def _assemble(meta: dict, records: np.ndarray) -> TraceSet:
    """The traceset a sidecar describes, over its concatenated records."""
    counts = [int(c) for c in meta["counts"]]
    if len(counts) != meta["n_procs"]:
        raise ValueError("per-processor counts do not match n_procs")
    if records.dtype != RECORD_DTYPE or records.ndim != 1:
        raise ValueError(f"unexpected record array {records.dtype} {records.shape}")
    if len(records) != sum(counts):
        raise ValueError("record data truncated")
    program = meta["program"]
    traces = []
    start = 0
    for proc, count in enumerate(counts):
        traces.append(Trace(records[start : start + count], proc=proc, program=program))
        start += count
    layout = AddressLayout.from_dict(meta["layout"])
    return TraceSet(traces, layout, program=program, meta=meta["meta"])


def resolve_trace_cache(value=None) -> TraceCache | None:
    """Normalize a trace-cache argument to a handle (or ``None``).

    * ``None`` -- consult ``$REPRO_TRACE_CACHE``: unset or falsy
      (``0/off/no/false``) disables the cache, truthy (``1/on/yes/true``)
      enables it at the default directory, anything else is a directory;
    * ``True``/``False`` -- the default cache / disabled, regardless of
      the environment;
    * a path -- a cache rooted there;
    * a :class:`TraceCache` -- returned as-is.
    """
    if isinstance(value, TraceCache):
        return value
    if value is None:
        env = os.environ.get("REPRO_TRACE_CACHE")
        if env is None or env.strip().lower() in _FALSY:
            return None
        if env.strip().lower() in _TRUTHY:
            return TraceCache()
        return TraceCache(env)
    if value is False:
        return None
    if value is True:
        return TraceCache()
    return TraceCache(value)
