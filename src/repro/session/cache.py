"""Two-tier content-addressed cache for the staged Study pipeline.

Every stage of a :class:`~repro.session.study.Study` computes a *key* from
its own parameters plus the keys of the stages it depends on, then asks the
cache for the artifact.  Two studies that share a cache and agree on a prefix
of the pipeline therefore share the artifacts of that prefix — a sensitivity
sweep that varies only the policy parameters pays topology generation once.

The cache has two tiers:

* a **bounded in-memory LRU** (``max_entries``) holding live artifact
  objects, and
* an optional **on-disk tier** (:class:`~repro.storage.store.DiskStore`)
  holding codec-encoded artifacts under a shared ``--cache-dir`` /
  ``REPRO_CACHE_DIR`` directory.  Artifacts found there are decoded instead
  of rebuilt, which is what lets a new process — a ``repro run``, a sweep
  worker, a fuzz case — reuse stages another process already computed.

Keys are salted with the ``repro`` release, the storage schema version and
every codec version (:func:`repro.storage.versions.version_salt`), so a
format change simply re-addresses the world and stale artifacts are never
deserialized.

The cache records per-stage hit / disk-hit / miss counters so tests (and
``python -m repro cache stats``) can assert the reuse actually happened.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import StorageError
from repro.storage.store import DiskStore
from repro.storage.versions import version_salt

#: Default bound of the in-memory tier (stage artifacts are large; a
#: sweep's working set per process is a handful of pipeline prefixes).
DEFAULT_MAX_ENTRIES = 128

#: Environment variable naming the shared disk tier directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable overriding the in-memory bound of the global cache.
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"


def fingerprint(*parts: object) -> str:
    """A stable content hash for a tuple of (reprs of) parameter objects.

    The parts are frozen dataclasses, strings or prior stage keys; their
    ``repr`` is deterministic field-by-field, which makes the digest a
    content address of the whole upstream configuration.  The digest is
    salted with :func:`repro.storage.versions.version_salt` (package
    release + storage schema + codec versions), so artifacts persisted
    under one format version are unreachable — not misread — under another.
    """
    digest = hashlib.sha256()
    digest.update(version_salt().encode("utf-8"))
    digest.update(b"\x1e")
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()[:20]


@dataclass
class StageStats:
    """Hit/miss accounting for one stage of the pipeline."""

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0

    @property
    def builds(self) -> int:
        """How many times the stage artifact was actually computed."""
        return self.misses

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain JSON-ready mapping."""
        return {"hits": self.hits, "disk_hits": self.disk_hits, "misses": self.misses}


_MISSING = object()


class StageCache:
    """A two-tier keyed artifact store shared by studies derived via ``with_``.

    Used from one thread: a build may itself resolve other (upstream) keys,
    and a build that raises stores nothing, so the next call retries it.

    Args:
        max_entries: bound of the in-memory LRU tier; ``None`` means
            unbounded (the pre-disk-tier behaviour).
        disk: optional on-disk tier shared across processes; artifacts
            round-trip through it via the stage codecs
            (:mod:`repro.storage.codecs`).
    """

    def __init__(
        self,
        max_entries: int | None = None,
        disk: DiskStore | None = None,
    ) -> None:
        self.max_entries = max_entries
        self.disk = disk
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._stats: dict[str, StageStats] = {}

    def get_or_build(
        self,
        stage: str,
        key: str,
        builder: Callable[[], Any],
        *,
        encode: Callable[[Any], bytes] | None = None,
        decode: Callable[[bytes], Any] | None = None,
    ) -> Any:
        """Return the artifact for ``key``: memory, then disk, then build.

        Args:
            stage: pipeline stage name (stats bucket and disk subdirectory).
            key: the artifact's content address.
            builder: zero-argument callable computing the artifact.
            encode: optional codec serializer; freshly built artifacts are
                persisted to the disk tier when both ``encode`` and a disk
                tier are present.
            decode: optional codec deserializer; with a disk tier present,
                stored bytes are decoded instead of building.  A decode
                failure (corrupt or incompatible file) falls back to the
                builder.

        Returns:
            The artifact.
        """
        stats = self._stats.setdefault(stage, StageStats())
        if key in self._entries:
            self._entries.move_to_end(key)
            stats.hits += 1
            return self._entries[key]

        value = _MISSING
        from_disk = False
        if self.disk is not None and decode is not None:
            payload = self.disk.read(stage, key)
            if payload is not None:
                try:
                    value = decode(payload)
                    from_disk = True
                except Exception:
                    value = _MISSING  # corrupt artifact: rebuild below
        if value is _MISSING:
            value = builder()
            if self.disk is not None and encode is not None:
                try:
                    self.disk.write(stage, key, encode(value))
                except (OSError, StorageError):
                    # The disk tier is best-effort: a full disk or an
                    # artifact a codec cannot round-trip must not crash a
                    # computation that already succeeded.
                    pass

        if from_disk:
            stats.disk_hits += 1
        else:
            stats.misses += 1
        self._entries[key] = value
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value

    def stats_for(self, stage: str) -> StageStats:
        """The hit/miss counters of one stage (zeros if never touched)."""
        return self._stats.setdefault(stage, StageStats())

    @property
    def stats(self) -> dict[str, StageStats]:
        """A snapshot of every stage's counters, keyed by stage name."""
        return {
            stage: StageStats(s.hits, s.disk_hits, s.misses)
            for stage, s in sorted(self._stats.items())
        }

    def stats_dict(self) -> dict[str, dict[str, int]]:
        """Every stage's counters as a JSON-ready nested mapping."""
        return {stage: stats.as_dict() for stage, stats in self.stats.items()}

    def disk_health(self) -> dict | None:
        """The disk tier's degradation/quarantine counters, or ``None``.

        Delegates to :meth:`repro.storage.store.DiskStore.health`; a
        memory-only cache reports ``None``.  Sweep workers attach this to
        their per-case stats so a degraded disk tier is visible in the
        sweep report instead of silently turning the warm path cold.
        """
        return self.disk.health() if self.disk is not None else None

    def clear(self, *, disk: bool = False) -> None:
        """Drop every completed artifact and reset the counters.

        Args:
            disk: when ``True``, also delete the disk tier's artifact files.
        """
        self._entries.clear()
        self._stats.clear()
        if disk and self.disk is not None:
            self.disk.clear()

    def __len__(self) -> int:
        return len(self._entries)


def cache_from_env() -> StageCache:
    """A cache configured from the environment.

    Reads :data:`CACHE_DIR_ENV` (``REPRO_CACHE_DIR``) for the disk tier —
    unset means memory-only — and :data:`CACHE_MAX_ENTRIES_ENV` for the
    in-memory bound (default :data:`DEFAULT_MAX_ENTRIES`, ``0`` means
    unbounded).
    """
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    raw_bound = os.environ.get(CACHE_MAX_ENTRIES_ENV, "")
    try:
        max_entries: int | None = int(raw_bound) if raw_bound else DEFAULT_MAX_ENTRIES
    except ValueError:
        max_entries = DEFAULT_MAX_ENTRIES
    if max_entries == 0:
        max_entries = None
    disk = DiskStore(cache_dir) if cache_dir else None
    return StageCache(max_entries=max_entries, disk=disk)


#: Process-wide default cache.  Scenario studies share it, which replaces the
#: two ``lru_cache`` singletons the seed API used.  Set ``REPRO_CACHE_DIR``
#: before the first import to give it a disk tier.
GLOBAL_CACHE = cache_from_env()
