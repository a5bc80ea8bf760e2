"""Tests of the content-addressed disk tier."""

import pytest

from repro.storage import versions
from repro.storage.store import DiskStore


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        store = DiskStore(tmp_path)
        store.write("topology", "abc123", b"payload")
        assert store.read("topology", "abc123") == b"payload"

    def test_missing_is_none(self, tmp_path):
        assert DiskStore(tmp_path / "nowhere").read("topology", "k") is None

    def test_write_is_atomic_replace(self, tmp_path):
        store = DiskStore(tmp_path)
        store.write("irr", "k1", b"one")
        store.write("irr", "k1", b"two")
        assert store.read("irr", "k1") == b"two"
        stage_dir = tmp_path / "irr"
        assert not list(stage_dir.rglob("*.tmp"))

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        path = store.write("topology", "k", b"payload")
        path.write_bytes(b"garbage")
        assert store.read("topology", "k") is None

    def test_flipped_byte_inside_header_string_reads_as_miss(self, tmp_path):
        # Corruption may surface as a UnicodeDecodeError (invalid UTF-8 in
        # a packed string), not just a StorageError — still a miss.
        store = DiskStore(tmp_path)
        path = store.write("topology", "k", b"payload")
        data = bytearray(path.read_bytes())
        position = data.index(b"repro-artifact")
        data[position] = 0xFF
        path.write_bytes(bytes(data))
        assert store.read("topology", "k") is None

    def test_stage_mismatch_reads_as_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        path = store.write("topology", "k", b"payload")
        moved = tmp_path / "policies" / "k"[:2]
        moved.mkdir(parents=True)
        (moved / path.name).write_bytes(path.read_bytes())
        assert store.read("policies", "k") is None

    def test_schema_version_mismatch_reads_as_miss(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path)
        store.write("topology", "k", b"payload")
        monkeypatch.setattr(versions, "SCHEMA_VERSION", versions.SCHEMA_VERSION + 1)
        monkeypatch.setattr(
            "repro.storage.store.SCHEMA_VERSION", versions.SCHEMA_VERSION
        )
        assert store.read("topology", "k") is None


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        store = DiskStore(tmp_path)
        store.write("topology", "aa11", b"x" * 10)
        store.write("topology", "bb22", b"y" * 20)
        store.write("irr", "cc33", b"z")
        stats = store.stats()
        assert stats["topology"]["artifacts"] == 2
        assert stats["irr"]["artifacts"] == 1
        assert stats["topology"]["bytes"] > 30
        removed = store.clear()
        assert removed == 3
        assert store.stats() == {"irr": {"artifacts": 0, "bytes": 0},
                                 "topology": {"artifacts": 0, "bytes": 0}}
        assert store.read("topology", "aa11") is None

    def test_clear_leaves_sweeps_alone(self, tmp_path):
        store = DiskStore(tmp_path)
        store.write("topology", "aa11", b"x")
        sweep_file = tmp_path / "sweeps" / "digest" / "manifest.json"
        sweep_file.parent.mkdir(parents=True)
        sweep_file.write_text("{}")
        store.clear()
        assert sweep_file.exists()

    def test_stats_and_clear_tolerate_vanishing_files(self, tmp_path, monkeypatch):
        # A concurrent writer/clear can remove files between the directory
        # walk and the per-file stat/unlink; both walks must skip, not raise.
        store = DiskStore(tmp_path)
        store.write("topology", "aa11", b"x" * 10)
        real = store.path_for("topology", "aa11")
        ghost = tmp_path / "topology" / "bb" / "bb22.art"

        def walk_with_ghost(stage_dir):
            return [real, ghost] if stage_dir.name == "topology" else []

        monkeypatch.setattr(store, "_artifact_files", walk_with_ghost)
        assert store.stats() == {"topology": {"artifacts": 1, "bytes": real.stat().st_size}}
        assert store.clear() == 1
        assert not real.exists()


class TestQuarantine:
    def test_invalid_file_moves_to_quarantine(self, tmp_path):
        store = DiskStore(tmp_path)
        path = store.write("topology", "abc123", b"payload")
        path.write_bytes(b"garbage")
        assert store.read("topology", "abc123") is None
        assert not path.exists()
        moved = tmp_path / "quarantine" / "topology" / path.name
        assert moved.read_bytes() == b"garbage"

    def test_quarantine_rules_out_repeated_decodes(self, tmp_path):
        store = DiskStore(tmp_path)
        path = store.write("topology", "abc123", b"payload")
        path.write_bytes(b"garbage")
        store.read("topology", "abc123")
        assert store.health()["quarantined_reads"] == 1
        store.read("topology", "abc123")  # plain miss now: no file to decode
        assert store.health()["quarantined_reads"] == 1

    def test_quarantined_files_visible_across_instances(self, tmp_path):
        store = DiskStore(tmp_path)
        path = store.write("topology", "abc123", b"payload")
        path.write_bytes(b"garbage")
        store.read("topology", "abc123")
        other = DiskStore(tmp_path)  # e.g. `repro cache stats` in a new process
        assert other.health()["quarantined_files"] == 1
        assert other.health()["quarantined_reads"] == 0

    def test_clear_and_stats_leave_quarantine_alone(self, tmp_path):
        store = DiskStore(tmp_path)
        path = store.write("topology", "abc123", b"payload")
        path.write_bytes(b"garbage")
        store.read("topology", "abc123")
        assert store.stats() == {"topology": {"artifacts": 0, "bytes": 0}}
        store.clear()
        assert store.health()["quarantined_files"] == 1


class TestDegradation:
    def blocked_store(self, tmp_path, **kwargs) -> DiskStore:
        # A root that is a *file*: every mkdir (hence every write) fails
        # with a real OSError, no monkeypatching needed.
        root = tmp_path / "not-a-directory"
        root.write_text("")
        return DiskStore(root, **kwargs)

    def test_persistent_write_failures_trip_degraded_mode(self, tmp_path):
        store = self.blocked_store(tmp_path)
        for attempt in range(store.degrade_after):
            with pytest.raises(OSError):
                store.write("topology", "k", b"payload")
        assert store.degraded
        assert store.write_failures == store.degrade_after
        # Degraded: writes are silently skipped instead of raising.
        assert store.write("topology", "k", b"payload") is None
        assert store.write_failures == store.degrade_after

    def test_health_reports_the_counters(self, tmp_path):
        store = self.blocked_store(tmp_path, degrade_after=1)
        with pytest.raises(OSError):
            store.write("topology", "k", b"payload")
        health = store.health()
        assert health["degraded"] is True
        assert health["write_failures"] == 1
        assert health["quarantined_reads"] == 0

    def test_a_success_resets_the_consecutive_counter(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        blocked = self.blocked_store(tmp_path)
        # Interleave failures (on the blocked root) with successes by
        # copying the counters through one instance: simplest is to drive
        # the real store's bookkeeping directly.
        store._note_write_failure()
        store._note_write_failure()
        store.write("topology", "k", b"payload")  # success resets the streak
        store._note_write_failure()
        assert not store.degraded
        assert store.write_failures == 3
        assert blocked.write_failures == 0

    def test_reads_still_work_while_degraded(self, tmp_path):
        store = DiskStore(tmp_path)
        store.write("topology", "k", b"payload")
        store.degraded = True
        assert store.read("topology", "k") == b"payload"
        assert store.write("topology", "other", b"x") is None
