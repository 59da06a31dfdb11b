"""Crash-safe, content-addressed result cache.

The cache **is** the fleet's checkpoint: every completed job is persisted
here the moment it finishes, under its content-addressed key
(:func:`repro.fleet.jobs.job_key`), so an interrupted sweep resumes
incrementally by simply re-invoking — completed cells hit, the rest
recompute.

Crash-safety is a two-layer contract:

* **Atomic publication** — an entry is written to a temporary file in the
  same directory, flushed and fsynced, then :func:`os.replace`-d into
  place. A reader (or a crash) never observes a half-written entry under
  the final name; at worst a stale ``.tmp`` is left behind and swept on
  the next :meth:`ResultCache.put`.
* **Verified reads** — every entry embeds a SHA-256 checksum of its
  canonical payload JSON plus its own key. A corrupt entry (truncated
  file, bit-rot, tampering, key mismatch) is *detected, evicted and
  reported* — ``get`` returns ``None`` and the fleet recomputes the cell
  rather than serving garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.fleet.jobs import canonical_json

ENTRY_SCHEMA = "repro-fleet-cache/1"


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_evicted: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_evicted": self.corrupt_evicted,
        }


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# concurrency: not-fork-inheritable -- writes tmp files + fsync through one
# directory handle; only the dispatcher process may publish entries. Workers
# report results over the pipe and the parent writes the cache.
class ResultCache:
    """Directory of checksummed result entries, one file per job key.

    Entries shard into 256 subdirectories by key prefix (``ab/abcd….json``)
    so huge sweeps don't degenerate into one enormous directory.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        #: Shard directories this instance has created (or found).
        self._shards: set[str] = set()

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    # -- reads ----------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The cached payload for ``key``, or ``None``.

        A present-but-corrupt entry counts as a miss: it is unlinked
        (evicted) and ``stats.corrupt_evicted`` incremented, so the
        caller recomputes instead of consuming a damaged result.
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        payload = self._load_verified(path, key)
        if payload is None:
            self._evict_corrupt(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def _load_verified(self, path: Path, key: str) -> dict | None:
        """Parse + verify one entry; ``None`` on any corruption."""
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != ENTRY_SCHEMA:
            return None
        if entry.get("key") != key:
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        if entry.get("checksum") != payload_checksum(payload):
            return None
        return payload

    def _evict_corrupt(self, path: Path) -> None:
        self.stats.corrupt_evicted += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / unwritable dir
            pass

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, payload: dict) -> Path:
        """Persist ``payload`` under ``key`` atomically; returns the path.

        Write-to-temp + fsync + ``os.replace`` means a concurrent reader
        sees either the previous entry or the complete new one — never a
        torn write — and a crash mid-put leaves the old state intact. The
        entry is encoded in one ``json.dumps`` call (the C encoder; the
        same bytes as ``json.dump``) and written in one write, and each
        shard directory is created once per instance.
        """
        path = self.path_for(key)
        shard = key[:2]
        if shard not in self._shards:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._shards.add(shard)
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        data = json.dumps(entry, sort_keys=True)
        tmp = path.parent / f"{key}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        for stale in path.parent.glob(f"{key}.tmp.*"):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent writer
                pass
        self.stats.stores += 1
        return path

    # -- inventory ------------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """Keys of every (syntactically) present entry, sorted."""
        for path in sorted(self.root.glob("*/*.json")):
            yield path.stem

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())
