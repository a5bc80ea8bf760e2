"""The on-disk artifact tier: content-addressed, atomic, versioned.

A :class:`DiskStore` lays stage artifacts out under one root directory::

    <root>/<stage>/<key[:2]>/<key>.art

Keys are the content addresses produced by
:func:`repro.session.cache.fingerprint`, so two processes that agree on a
pipeline prefix address the same files — that is what lets a sweep worker
reuse the topology another worker already compiled.

Each file is a packed ``(header, payload)`` pair.  The header records the
storage schema version, the stage, the stage codec version, the ``repro``
release and the machine byte order; :meth:`DiskStore.read` returns ``None``
(a miss) on any mismatch or corruption instead of handing stale bytes to a
codec.  Writes go through a temporary file in the same directory followed
by :func:`os.replace`, so concurrent writers are safe and a killed process
never leaves a half-written artifact behind.

Failure handling (see ``docs/robustness.md``):

* **Quarantine** — a file that exists but fails validation is *moved* to
  ``<root>/quarantine/<stage>/`` before the miss is returned.  Artifacts
  are content-addressed, so an invalid file can never become valid again;
  quarantining rules out repeated decode attempts and preserves the bytes
  for inspection.
* **Degradation** — :data:`DEGRADE_AFTER` consecutive write failures trip
  the store into memory-only mode: further writes are silently skipped
  (``write`` returns ``None``) instead of raising, and the ``degraded``
  flag plus failure counters are reported by :meth:`DiskStore.health` and
  ``python -m repro cache stats``.
* **Race tolerance** — :meth:`stats` and :meth:`clear` skip files that a
  concurrent writer or ``clear`` removed mid-walk instead of raising.
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile

from repro.faults.runtime import corrupt_artifact, fault_point
from repro.storage.packing import pack, unpack
from repro.storage.versions import CODEC_VERSIONS, SCHEMA_VERSION

#: Leading marker of every artifact file header.
_MAGIC = "repro-artifact"

#: File suffix of stored artifacts.
_SUFFIX = ".art"

#: Subdirectory (next to the stage directories) holding quarantined files.
QUARANTINE_DIR = "quarantine"

#: Consecutive write failures after which the store degrades to
#: memory-only operation (stops attempting disk writes).
DEGRADE_AFTER = 3

#: Directories under the root that are not content-addressed stage tiers.
_NON_STAGE_DIRS = frozenset({"sweeps", QUARANTINE_DIR})


class DiskStore:
    """The content-addressed disk tier shared across processes.

    Args:
        root: directory the store lives under (created lazily on first
            write; reads from a missing root are plain misses).
        degrade_after: consecutive write failures that trip the store into
            memory-only mode (default :data:`DEGRADE_AFTER`).

    Attributes:
        degraded: ``True`` once persistent write errors disabled the disk
            tier for this store instance; writes become silent no-ops.
        write_failures: total failed write attempts of this instance.
        quarantined_reads: invalid files this instance moved to quarantine.
    """

    def __init__(self, root: str | os.PathLike, *, degrade_after: int = DEGRADE_AFTER) -> None:
        """Bind the store to its root directory (not created yet)."""
        self.root = pathlib.Path(root)
        self.degrade_after = degrade_after
        self.degraded = False
        self.write_failures = 0
        self.quarantined_reads = 0
        self._consecutive_write_failures = 0

    # -- addressing ------------------------------------------------------------

    def path_for(self, stage: str, key: str) -> pathlib.Path:
        """The file path addressing one ``(stage, key)`` artifact."""
        return self.root / stage / key[:2] / f"{key}{_SUFFIX}"

    # -- read / write ----------------------------------------------------------

    def read(self, stage: str, key: str) -> bytes | None:
        """The stored payload of an artifact, or ``None``.

        Args:
            stage: pipeline stage name.
            key: the artifact's content address.

        Returns:
            The codec payload bytes, or ``None`` when the file is missing,
            unreadable, corrupt, or written under a different schema/codec
            version, ``repro`` release or byte order — every mismatch is a
            miss, never an error, so callers simply rebuild.  Invalid files
            are moved to ``<root>/quarantine/<stage>/`` so they are decoded
            at most once.
        """
        path = self.path_for(stage, key)
        fault_point("latency", f"{stage}/{key}")
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            tree = unpack(data)
        except Exception:
            # Corruption can surface as more than StorageError (invalid
            # UTF-8 in a string node, a bad array typecode, a frombytes
            # length mismatch); the read contract is "corruption is a
            # miss", so any decode failure falls back to the builder.
            self._quarantine(stage, path)
            return None
        if not (isinstance(tree, tuple) and len(tree) == 2):
            self._quarantine(stage, path)
            return None
        header, payload = tree
        if header != self._header(stage) or not isinstance(payload, bytes):
            self._quarantine(stage, path)
            return None
        return payload

    def write(self, stage: str, key: str, payload: bytes) -> pathlib.Path | None:
        """Atomically persist one artifact payload.

        Args:
            stage: pipeline stage name.
            key: the artifact's content address.
            payload: the codec-encoded bytes.

        Returns:
            The final file path, or ``None`` when the store is degraded
            (persistent write errors already disabled the disk tier).

        Raises:
            OSError: if the filesystem rejects the write (callers treat the
                disk tier as best-effort and may swallow this); after
                ``degrade_after`` consecutive failures the store degrades
                and stops raising — later writes are skipped.
        """
        if self.degraded:
            return None
        path = self.path_for(stage, key)
        identity = f"{stage}/{key}"
        data = pack((self._header(stage), payload))
        try:
            fault_point("latency", identity)
            fault_point("store-write", identity)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key}.", suffix=".tmp", dir=path.parent
            )
        except OSError:
            self._note_write_failure()
            raise
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException as error:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if isinstance(error, OSError):
                self._note_write_failure()
            raise
        self._consecutive_write_failures = 0
        corrupt_artifact(path, identity)
        return path

    def _note_write_failure(self) -> None:
        """Count one failed write; trip degraded mode when persistent."""
        self.write_failures += 1
        self._consecutive_write_failures += 1
        if self._consecutive_write_failures >= self.degrade_after:
            self.degraded = True

    def _quarantine(self, stage: str, path: pathlib.Path) -> None:
        """Move an invalid artifact file aside so it is never re-decoded.

        Content addressing guarantees the file can never become valid for
        its key, so the move both rules out repeated decode attempts and
        keeps the bytes around for post-mortem inspection.  Failure to
        move (e.g. a read-only filesystem) still leaves the read a miss.
        """
        target = self.root / QUARANTINE_DIR / stage / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return
        self.quarantined_reads += 1

    def _header(self, stage: str) -> tuple:
        """The expected file header of one stage's artifacts."""
        from repro import __version__

        return (
            _MAGIC,
            SCHEMA_VERSION,
            stage,
            CODEC_VERSIONS.get(stage, 0),
            __version__,
            sys.byteorder,
        )

    # -- maintenance -----------------------------------------------------------

    def _artifact_files(self, stage_dir: pathlib.Path) -> list[pathlib.Path]:
        """The stage's artifact files, tolerating concurrent deletion."""
        try:
            return sorted(stage_dir.rglob(f"*{_SUFFIX}"))
        except OSError:
            return []

    def health(self) -> dict:
        """Degradation and quarantine counters of the disk tier.

        Returns:
            ``degraded``/``write_failures``/``quarantined_reads`` reflect
            this store instance (in-process); ``quarantined_files`` counts
            the files currently under ``<root>/quarantine/`` on disk, so it
            is visible across processes (e.g. to ``repro cache stats``).
        """
        quarantine_root = self.root / QUARANTINE_DIR
        quarantined_files = 0
        if quarantine_root.is_dir():
            quarantined_files = len(self._artifact_files(quarantine_root))
        return {
            "degraded": self.degraded,
            "write_failures": self.write_failures,
            "quarantined_reads": self.quarantined_reads,
            "quarantined_files": quarantined_files,
        }

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-stage artifact counts and byte totals of the disk tier.

        Returns:
            Mapping ``stage -> {"artifacts": n, "bytes": total}`` for every
            stage directory present under the root, sorted by stage name.
            Files removed by a concurrent writer or ``clear`` mid-walk are
            skipped, never an error.
        """
        result: dict[str, dict[str, int]] = {}
        if not self.root.is_dir():
            return result
        try:
            stage_dirs = sorted(self.root.iterdir())
        except OSError:
            return result
        for stage_dir in stage_dirs:
            if not stage_dir.is_dir() or stage_dir.name in _NON_STAGE_DIRS:
                continue
            count = 0
            total = 0
            for path in self._artifact_files(stage_dir):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue  # vanished mid-walk (concurrent clear/replace)
                count += 1
                total += size
            result[stage_dir.name] = {"artifacts": count, "bytes": total}
        return result

    def clear(self) -> int:
        """Delete every stored artifact file.

        Sweep manifests and case reports under ``<root>/sweeps`` are left
        alone, as are quarantined files under ``<root>/quarantine`` — only
        the content-addressed tier is dropped.  Files already removed by a
        concurrent ``clear`` are skipped.

        Returns:
            The number of artifact files removed.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        try:
            stage_dirs = sorted(self.root.iterdir())
        except OSError:
            return removed
        for stage_dir in stage_dirs:
            if not stage_dir.is_dir() or stage_dir.name in _NON_STAGE_DIRS:
                continue
            for path in self._artifact_files(stage_dir):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    def __repr__(self) -> str:
        """The store's root directory, for logs and error messages."""
        return f"DiskStore({str(self.root)!r})"
