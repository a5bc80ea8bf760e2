"""Corruption fuzzing across every stage codec.

The store's read contract is *corruption is a miss, never an exception*:
whatever happened to the bytes on disk — truncation, bit rot, an empty
file, an artifact written by another schema or codec version — the reader
must fall back to the builder, and structurally invalid files must move to
quarantine so they are decoded at most once.  This suite drives that
contract over real artifacts of every stage with a registered codec.
"""

import pytest

from repro.session.cache import StageCache
from repro.session.stages import ObservationParameters, Stage, StudyConfig
from repro.session.study import Study
from repro.storage import versions
from repro.storage.codecs import codec_for
from repro.storage.store import DiskStore
from repro.topology.generator import GeneratorParameters

#: Every stage with a registered codec (= every stage the store persists).
STAGES = tuple(stage.value for stage in Stage if codec_for(stage.value) is not None)

#: Tiny but complete: every stage builds in well under a second.
_CONFIG = StudyConfig(
    topology=GeneratorParameters(
        seed=3, tier1_count=3, tier2_count=4, tier3_count=6, stub_count=25
    ),
    observation=ObservationParameters(
        looking_glass_count=4, tier1_looking_glass_count=2, collector_vantage_count=6
    ),
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One disk-backed tiny study; returns ``stage -> (key, artifact bytes)``."""
    root = tmp_path_factory.mktemp("pristine-artifacts")
    study = Study(_CONFIG, cache=StageCache(disk=DiskStore(root)))
    study.dataset()
    study.analysis()
    artifacts = {}
    for stage in STAGES:
        paths = sorted((root / stage).rglob("*.art"))
        assert paths, f"the {stage} stage persisted no artifact"
        path = paths[0]
        artifacts[stage] = (path.stem, path.read_bytes())
    return artifacts


def store_with(tmp_path, stage: str, key: str, data: bytes) -> DiskStore:
    """A fresh store whose only artifact is the given (possibly bad) bytes."""
    store = DiskStore(tmp_path / "store")
    path = store.path_for(stage, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return store


def corruptions(data: bytes) -> dict[str, bytes]:
    """The structural corruption variants of one artifact file."""
    return {
        "zero-length": b"",
        "truncated-half": data[: len(data) // 2],
        "truncated-tail": data[:-1],
        "truncated-header": data[:10],
        "garbage": b"\xde\xad\xbe\xef" * 8,
        "header-flip": bytes([data[0] ^ 0xFF]) + data[1:],
    }


class TestStructuralCorruption:
    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize(
        "mode",
        ["zero-length", "truncated-half", "truncated-tail", "truncated-header",
         "garbage", "header-flip"],
    )
    def test_reads_as_quarantined_miss(self, pristine, tmp_path, stage, mode):
        key, data = pristine[stage]
        store = store_with(tmp_path, stage, key, corruptions(data)[mode])
        assert store.read(stage, key) is None
        # The invalid file moved aside: the re-read is a plain miss and the
        # quarantine counter does not grow again.
        assert not store.path_for(stage, key).exists()
        assert store.health()["quarantined_reads"] == 1
        assert store.health()["quarantined_files"] == 1
        assert store.read(stage, key) is None
        assert store.health()["quarantined_reads"] == 1

    @pytest.mark.parametrize("stage", STAGES)
    def test_cache_falls_back_to_the_builder(self, pristine, tmp_path, stage):
        key, data = pristine[stage]
        store = store_with(tmp_path, stage, key, corruptions(data)["truncated-half"])
        cache = StageCache(disk=store)
        sentinel = object()
        rebuilt = cache.get_or_build(
            stage, key, lambda: sentinel, decode=lambda payload: payload
        )
        assert rebuilt is sentinel
        assert cache.stats_for(stage).misses == 1
        assert cache.stats_for(stage).disk_hits == 0


class TestVersionMismatch:
    @pytest.mark.parametrize("stage", STAGES)
    def test_schema_version_bump_is_a_miss(self, pristine, tmp_path, stage, monkeypatch):
        key, data = pristine[stage]
        store = store_with(tmp_path, stage, key, data)
        monkeypatch.setattr(
            "repro.storage.store.SCHEMA_VERSION", versions.SCHEMA_VERSION + 1
        )
        assert store.read(stage, key) is None
        assert store.health()["quarantined_reads"] == 1

    @pytest.mark.parametrize("stage", STAGES)
    def test_codec_version_bump_is_a_miss(self, pristine, tmp_path, stage, monkeypatch):
        key, data = pristine[stage]
        store = store_with(tmp_path, stage, key, data)
        monkeypatch.setitem(
            versions.CODEC_VERSIONS, stage, versions.CODEC_VERSIONS.get(stage, 0) + 1
        )
        assert store.read(stage, key) is None


class TestBitFlips:
    @pytest.mark.parametrize("stage", STAGES)
    def test_single_byte_flips_never_raise(self, pristine, tiny_study, tmp_path, stage):
        # A flip anywhere in the file — header or payload — must never
        # escape the cache as an exception: either the store rejects the
        # bytes (header damage), the codec fails and the cache rebuilds, or
        # the flip was in a spot the codec tolerates.  The full end-to-end
        # "corrupted cache still reproduces byte-identical reports"
        # invariant is exercised by ``python -m repro chaos``.
        key, data = pristine[stage]
        codec = codec_for(stage)
        step = max(1, len(data) // 16)
        sentinel = object()
        for offset in range(0, len(data), step):
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            store = store_with(tmp_path, stage, key, bytes(flipped))
            cache = StageCache(disk=store)
            cache.get_or_build(
                stage,
                key,
                lambda: sentinel,
                decode=codec.decode,
            )
