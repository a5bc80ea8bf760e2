"""Tests for the two-tier content-addressed stage cache."""

from repro.session import StageCache, fingerprint
from repro.storage.store import DiskStore
from repro.topology.generator import GeneratorParameters


class TestFingerprint:
    def test_deterministic(self):
        params = GeneratorParameters(seed=1)
        assert fingerprint("topology", params) == fingerprint("topology", params)

    def test_distinguishes_parameters(self):
        assert fingerprint("topology", GeneratorParameters(seed=1)) != fingerprint(
            "topology", GeneratorParameters(seed=2)
        )

    def test_distinguishes_stage_names(self):
        params = GeneratorParameters()
        assert fingerprint("topology", params) != fingerprint("policies", params)


class TestStageCache:
    def test_miss_then_hit(self):
        cache = StageCache()
        built = []

        def builder():
            built.append(1)
            return "artifact"

        assert cache.get_or_build("topology", "k1", builder) == "artifact"
        assert cache.get_or_build("topology", "k1", builder) == "artifact"
        assert built == [1]
        stats = cache.stats_for("topology")
        assert (stats.misses, stats.hits, stats.builds) == (1, 1, 1)

    def test_distinct_keys_build_separately(self):
        cache = StageCache()
        assert cache.get_or_build("s", "a", lambda: 1) == 1
        assert cache.get_or_build("s", "b", lambda: 2) == 2
        assert len(cache) == 2
        assert cache.stats_for("s").misses == 2

    def test_per_stage_stats(self):
        cache = StageCache()
        cache.get_or_build("topology", "k", lambda: 1)
        cache.get_or_build("policies", "k2", lambda: 2)
        assert cache.stats_for("topology").misses == 1
        assert cache.stats_for("policies").misses == 1
        assert cache.stats_for("never-touched").misses == 0

    def test_failed_build_retried_by_waiters(self):
        cache = StageCache()
        attempts = []

        def flaky_builder():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first build fails")
            return "artifact"

        import pytest as _pytest

        with _pytest.raises(RuntimeError):
            cache.get_or_build("s", "k", flaky_builder)
        assert cache.get_or_build("s", "k", flaky_builder) == "artifact"
        assert len(attempts) == 2

    def test_clear_resets_everything(self):
        cache = StageCache()
        cache.get_or_build("s", "k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats_for("s").misses == 0


class TestVersionedFingerprint:
    def test_salted_with_storage_versions(self, monkeypatch):
        params = GeneratorParameters(seed=1)
        before = fingerprint("topology", params)
        from repro.storage import versions

        monkeypatch.setattr(versions, "SCHEMA_VERSION", versions.SCHEMA_VERSION + 1)
        assert fingerprint("topology", params) != before

    def test_salted_with_codec_versions(self, monkeypatch):
        params = GeneratorParameters(seed=1)
        before = fingerprint("topology", params)
        from repro.storage import versions

        bumped = dict(versions.CODEC_VERSIONS, topology=99)
        monkeypatch.setattr(versions, "CODEC_VERSIONS", bumped)
        assert fingerprint("topology", params) != before


class TestBoundedMemoryTier:
    def test_lru_eviction(self):
        cache = StageCache(max_entries=2)
        cache.get_or_build("s", "a", lambda: 1)
        cache.get_or_build("s", "b", lambda: 2)
        cache.get_or_build("s", "a", lambda: 1)  # refresh a
        cache.get_or_build("s", "c", lambda: 3)  # evicts b (least recent)
        assert len(cache) == 2
        built = []
        cache.get_or_build("s", "b", lambda: built.append(1) or 2)
        assert built == [1]  # b was evicted and rebuilt
        stats = cache.stats_for("s")
        assert stats.misses == 4
        assert stats.hits == 1

    def test_unbounded_by_default(self):
        cache = StageCache()
        for index in range(300):
            cache.get_or_build("s", f"k{index}", lambda: index)
        assert len(cache) == 300


class TestDiskTier:
    def test_second_cache_hits_disk(self, tmp_path):
        disk = DiskStore(tmp_path)
        encode = lambda value: repr(value).encode()  # noqa: E731
        decode = lambda data: eval(data.decode())  # noqa: E731,S307

        first = StageCache(disk=disk)
        first.get_or_build("s", "k", lambda: [1, 2], encode=encode, decode=decode)
        assert first.stats_for("s").misses == 1

        second = StageCache(disk=disk)
        built = []
        value = second.get_or_build(
            "s", "k", lambda: built.append(1), encode=encode, decode=decode
        )
        assert value == [1, 2]
        assert built == []  # served from disk, never built
        stats = second.stats_for("s")
        assert (stats.hits, stats.disk_hits, stats.misses) == (0, 1, 0)

    def test_decode_failure_falls_back_to_builder(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.write("s", "k", b"not what decode expects")

        def decode(data: bytes):
            raise ValueError("corrupt")

        cache = StageCache(disk=disk)
        value = cache.get_or_build(
            "s", "k", lambda: "rebuilt", encode=lambda v: v.encode(), decode=decode
        )
        assert value == "rebuilt"
        assert cache.stats_for("s").misses == 1
        # The rebuild overwrote the bad artifact; a new cache now disk-hits.
        fresh = StageCache(disk=disk)
        assert (
            fresh.get_or_build(
                "s",
                "k",
                lambda: "never",
                encode=lambda v: v.encode(),
                decode=lambda d: d.decode(),
            )
            == "rebuilt"
        )
        assert fresh.stats_for("s").disk_hits == 1

    def test_encode_failure_does_not_crash_a_successful_build(self, tmp_path):
        from repro.exceptions import StorageError

        def encode(value):
            raise StorageError("artifact cannot be lowered")

        cache = StageCache(disk=DiskStore(tmp_path))
        value = cache.get_or_build(
            "s", "k", lambda: "built", encode=encode, decode=bytes.decode
        )
        assert value == "built"  # best-effort tier: the computation survives
        assert cache.stats_for("s").misses == 1

    def test_no_codec_stays_memory_only(self, tmp_path):
        disk = DiskStore(tmp_path)
        cache = StageCache(disk=disk)
        cache.get_or_build("s", "k", lambda: 1)
        assert disk.read("s", "k") is None

    def test_clear_disk(self, tmp_path):
        disk = DiskStore(tmp_path)
        cache = StageCache(disk=disk)
        cache.get_or_build(
            "s", "k", lambda: "v", encode=lambda v: v.encode(), decode=bytes.decode
        )
        cache.clear(disk=True)
        assert disk.read("s", "k") is None
