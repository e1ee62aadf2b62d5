"""Content-addressed on-disk result cache.

Layout (git-style fan-out to keep directories small)::

    <root>/objects/<key[:2]>/<key>.json

An object is one header line -- JSON holding the store ``format``, the
object's ``key``, the full job ``spec`` (so entries are self-describing)
and the ``sha256`` of the body -- then ``\n``, then the body: the
result's canonical JSON (:func:`~repro.runner.serialize.result_to_json`).
Every load checks the format version, that the embedded key matches the
file's address and that the body hashes to the recorded digest;
anything unreadable, stale or edited is *invalidated* -- counted,
deleted, and treated as a miss -- rather than trusted.  A verified body
can be served as it was stored (:meth:`ResultCache.get_bytes`), with no
decode and re-encode.

Writes are atomic (temp file + ``os.replace``) so a crashed or
concurrent writer can never leave a half-written object where a later
run would find it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..machine.metrics import RunResult
from .serialize import result_from_json, result_to_json
from .spec import CACHE_FORMAT, JobSpec

__all__ = ["CacheStats", "ResultCache", "default_cache_dir"]

#: a cache key is a SHA-256 hex digest; a key read from a URL or a peer
#: that is anything else (``../x``, say) names no object, and must never
#: reach the filesystem, where a failed check would delete what it names
_KEY = re.compile(r"[0-9a-f]{64}")


def _mtime(path: Path) -> float:
    """mtime, with vanished-under-us files treated as just touched."""
    try:
        return path.stat().st_mtime
    except OSError:
        return float("inf")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
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


class ResultCache:
    """Content-addressed store of :class:`RunResult`s keyed by job spec."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()
        #: ``<root>/objects/`` as a string, so a lookup joins no Paths
        self._objects = os.path.join(self.root, "objects", "")

    # ------------------------------------------------------------------
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    def path_for(self, key: str) -> Path:
        return self._objects_dir() / key[:2] / f"{key}.json"

    def _discard(self, path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _invalidate(self, path) -> None:
        self.stats.invalidated += 1
        self.stats.misses += 1
        self._discard(path)

    # ------------------------------------------------------------------
    def get(self, spec: JobSpec) -> RunResult | None:
        """The cached result for ``spec``, or ``None`` on a miss.

        Corrupt, truncated, edited or format-stale entries are deleted
        and counted in ``stats.invalidated``.
        """
        return self.get_by_key(spec.cache_key())

    def get_by_key(self, key: str) -> RunResult | None:
        body = self._verified_body(key)
        if body is None:
            return None
        try:
            result = result_from_json(body)
        except Exception:
            # *any* decode failure means the object is corrupt or stale --
            # a cache must self-heal (discard + miss), never raise: the
            # narrower (KeyError, TypeError, ValueError) let e.g. an
            # AttributeError from a malformed payload escape to callers
            self._invalidate(self.path_for(key))
            return None
        self.stats.hits += 1
        return result

    def get_bytes(self, key: str) -> bytes | None:
        """The stored canonical JSON body for ``key``, undecoded, or
        ``None`` on a miss -- returned only after the format, key and
        digest checks pass, so it can be served as it is."""
        body = self._verified_body(key)
        if body is not None:
            self.stats.hits += 1
        return body

    def _verified_body(self, key: str) -> bytes | None:
        """Read and check one object; counts misses and invalidations
        (the caller counts the hit)."""
        if not _KEY.fullmatch(key):
            self.stats.misses += 1
            return None
        path = f"{self._objects}{key[:2]}{os.sep}{key}.json"
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self._invalidate(path)
            return None
        head, newline, body = data.partition(b"\n")
        try:
            header = json.loads(head)
            valid = (
                header["format"] == CACHE_FORMAT
                and header["key"] == key
                and header["sha256"] == hashlib.sha256(body).hexdigest()
            )
        except (ValueError, TypeError, KeyError):
            valid = False
        if not (newline and valid):
            self._invalidate(path)
            return None
        return body

    def put(self, spec: JobSpec, result: RunResult) -> str:
        """Store ``result`` under ``spec``'s key; returns the key."""
        key = spec.cache_key()
        body = result_to_json(result).encode()
        header = {
            "format": CACHE_FORMAT,
            "key": key,
            "spec": spec.to_dict(),
            "sha256": hashlib.sha256(body).hexdigest(),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
            os.replace(tmp, path)
        except BaseException:
            self._discard(tmp)
            raise
        self.stats.puts += 1
        return key

    def __contains__(self, spec: JobSpec) -> bool:
        return self.path_for(spec.cache_key()).exists()

    def has_key(self, key: str) -> bool:
        """Cheap existence probe (peer ``has`` ops); no stats, no parse."""
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    def _object_files(self) -> list[Path]:
        objects = self._objects_dir()
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def count(self) -> int:
        return len(self._object_files())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._object_files())

    def clear(self, older_than_days: float | None = None) -> int:
        """Delete cached objects; returns how many were removed.

        ``older_than_days`` keeps the warm set: only objects whose mtime
        is older than that many days are garbage-collected.
        """
        files = self._object_files()
        if older_than_days is not None:
            import time

            cutoff = time.time() - float(older_than_days) * 86400.0
            files = [p for p in files if _mtime(p) < cutoff]
        for p in files:
            self._discard(p)
        for d in sorted(self._objects_dir().glob("*")):
            try:
                d.rmdir()
            except OSError:
                pass
        return len(files)

    def describe(self) -> str:
        """Multi-line human-readable cache report (``repro cache stats``)."""
        n = self.count()
        size = self.size_bytes()
        return (
            f"cache directory : {self.root}\n"
            f"cached results  : {n}\n"
            f"total size      : {size / 1024:.1f} KiB\n"
            f"this session    : {self.stats.summary()}"
        )

    def stats_dict(self) -> dict:
        """JSON-ready cache report (``repro cache stats --json``, the
        service ``/status`` endpoint, worker ``stats`` ops)."""
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
