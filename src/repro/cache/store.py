"""The on-disk result cache: one JSON file per content-addressed key.

Layout is two-level (``<root>/<key[:2]>/<key>.json``) so a large cache
never puts tens of thousands of entries in one directory.  Writes are
atomic — serialize to a temp file in the destination directory, then
``os.replace`` — so concurrent pool workers publishing the same key
race benignly: whichever rename lands last wins and both files were
identical by construction (the key *is* the content address of the
inputs).

Lookups never raise.  A missing entry is a miss; a corrupt, truncated,
stale-schema or key-mismatched entry is an *invalidation* (counted
separately, best-effort deleted) and then a miss.  Hit/miss/
invalidation counters feed the ambient metrics registry, so a run's
``--metrics-json`` artifact reports exactly how much work the cache
saved.

**Remote tier.**  ``REPRO_CACHE_REMOTE`` (or the ``remote=``
constructor argument) names a second, read-through backend directory
with the same layout — typically a shared filesystem seeded by CI or
another machine.  A local miss falls through to the remote; a remote
hit is *promoted* into the local tier (so the next lookup is one
local ``open`` away) and local publishes are mirrored best-effort.
The remote is advisory end to end: unreadable, corrupt or unwritable
remote state only moves ``cache.remote.*`` counters, never an
experiment's outcome.  ``cache.hits``/``cache.misses`` keep their
single-tier meaning (local hits; both-tier misses), so warm-cache
assertions written before the remote tier existed still hold.
"""

from __future__ import annotations

import json
import os
from typing import Any

from ..errors import CacheError
from ..obs.context import record_metric
from ..resilience.faults import fault_point
from .keys import CACHE_SCHEMA_VERSION

#: Environment pointing at the read-through remote backend directory.
_ENV_REMOTE = "REPRO_CACHE_REMOTE"

#: Sentinel distinguishing "remote missed" from a stored null payload.
_MISS = object()


def default_remote_dir() -> str | None:
    """The configured remote backend directory, if any."""
    return os.environ.get(_ENV_REMOTE) or None


class ResultCache:
    """Content-addressed store of JSON-able cell payloads.

    ``salt`` is folded into every key computed *for* this cache by
    :meth:`repro.core.session.Session` — changing it orphans (but does
    not delete) every existing entry.
    """

    def __init__(
        self, root: str, salt: str = "", remote: str | None = None
    ) -> None:
        self.root = root
        self.salt = salt
        # None = inherit the environment; "" = explicitly no remote.
        self.remote = (
            remote if remote is not None else default_remote_dir()
        ) or None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.writes = 0
        self.remote_hits = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _remote_path(self, key: str) -> str:
        assert self.remote is not None
        return os.path.join(self.remote, key[:2], f"{key}.json")

    @staticmethod
    def _valid(entry: Any, key: str) -> bool:
        return (
            isinstance(entry, dict)
            and entry.get("schema_version") == CACHE_SCHEMA_VERSION
            and entry.get("key") == key
            and "payload" in entry
        )

    # -- lookup ------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """The payload stored under ``key``, or ``None`` (a miss).

        Never raises: unreadable or corrupt entries are invalidated
        (deleted best-effort) and reported as misses.
        """
        path = self._path(key)
        try:
            # Injectable read-side disk fault (an ``enospc``/EIO-class
            # OSError lands in the invalidate branch below, preserving
            # the never-raise contract under injection too).
            fault_point(f"cache:get:{key[:12]}")
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return self._fall_through(key)
        except (OSError, ValueError, UnicodeDecodeError):
            self._invalidate(path)
            return self._fall_through(key)
        if not self._valid(entry, key):
            self._invalidate(path)
            return self._fall_through(key)
        self.hits += 1
        record_metric("counter", "cache.hits")
        return entry["payload"]

    def _fall_through(self, key: str) -> Any | None:
        """Local tier missed: consult the remote, else record a miss."""
        payload = self._remote_get(key)
        if payload is not _MISS:
            return payload
        self._miss()
        return None

    def _remote_get(self, key: str) -> Any:
        """Remote lookup + local promotion; ``_MISS`` when absent,
        unreadable, invalid, or no remote is configured."""
        if self.remote is None:
            return _MISS
        path = self._remote_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return _MISS
        except (OSError, ValueError, UnicodeDecodeError):
            record_metric("counter", "cache.remote.errors")
            return _MISS
        if not self._valid(entry, key):
            # Never delete remote state (it is someone else's tier);
            # just refuse to trust it.
            record_metric("counter", "cache.remote.errors")
            return _MISS
        self.remote_hits += 1
        record_metric("counter", "cache.remote.hits")
        if self._write_entry(self._path(key), entry):
            record_metric("counter", "cache.remote.promotions")
        return entry["payload"]

    def _miss(self) -> None:
        self.misses += 1
        record_metric("counter", "cache.misses")

    def _invalidate(self, path: str) -> None:
        self.invalidations += 1
        record_metric("counter", "cache.invalidations")
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- publish -----------------------------------------------------

    def put(self, key: str, payload: Any) -> bool:
        """Atomically publish ``payload`` under ``key``.

        Returns False (and counts ``cache.errors``) when the filesystem
        refuses — a cache that cannot write must not fail the cell.
        """
        path = self._path(key)
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "payload": payload,
        }
        try:
            # Injectable write-side disk fault (ENOSPC on publish must
            # not fail the cell — it is a counted non-write).
            fault_point(f"cache:put:{key[:12]}")
            written = self._write_entry(path, entry)
        except OSError:
            written = False
        if not written:
            record_metric("counter", "cache.errors")
            return False
        self.writes += 1
        record_metric("counter", "cache.writes")
        # Mirror to the remote tier best-effort: a shared backend that
        # cannot be written is a counted condition, not a failure.
        if self.remote is not None:
            if self._write_entry(self._remote_path(key), entry):
                record_metric("counter", "cache.remote.writes")
            else:
                record_metric("counter", "cache.remote.errors")
        return True

    @staticmethod
    def _write_entry(path: str, entry: dict[str, Any]) -> bool:
        """Atomic serialize-then-rename publish of one entry."""
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
                handle.write("\n")
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    # -- administration ----------------------------------------------

    def _entry_paths(self) -> list[str]:
        paths: list[str] = []
        try:
            shards = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise CacheError(
                f"cannot read cache directory {self.root!r}: {exc}"
            ) from exc
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError as exc:
                raise CacheError(
                    f"cannot read cache shard {shard_dir!r}: {exc}"
                ) from exc
            paths.extend(
                os.path.join(shard_dir, name)
                for name in names
                if name.endswith(".json")
            )
        return paths

    def stats(self) -> dict[str, Any]:
        """On-disk entry count/bytes plus this instance's counters."""
        paths = self._entry_paths()
        total_bytes = 0
        for path in paths:
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "root": self.root,
            "remote": self.remote,
            "entries": len(paths),
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "writes": self.writes,
            "remote_hits": self.remote_hits,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError as exc:
                raise CacheError(
                    f"cannot remove cache entry {path!r}: {exc}"
                ) from exc
        return removed

    def __len__(self) -> int:
        return len(self._entry_paths())
