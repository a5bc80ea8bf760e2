"""Per-stage codec round-trips: disk-loaded artifacts equal fresh ones.

Only the stored stages (topology, policies, propagation, irr) have codecs,
and each decodes its bytes alone.  The derived observation and analysis
stages are rebuilt in memory from the disk-loaded stages they read, with
zero builds of those.
"""

from repro.session.cache import StageCache
from repro.session.stages import Stage
from repro.session.study import Study
from repro.session.suite import run_suite
from repro.storage.codecs import codec_for
from repro.storage.store import DiskStore

#: The stages the disk tier persists; the rest are derived in memory.
STORED = ("topology", "policies", "propagation", "irr")


def _warm_study(tiny_study, tmp_path) -> Study:
    """A second study over the same config whose cache hits only the disk."""
    disk = DiskStore(tmp_path)
    cold = Study(tiny_study.config, cache=StageCache(disk=disk))
    cold.dataset()
    cold.analysis()
    warm = Study(tiny_study.config, cache=StageCache(disk=disk))
    return warm


def _assert_derived_from_disk(warm: Study, stage: str) -> None:
    """``stage`` was built once, over disk-loaded upstream stages."""
    stats = warm.cache.stats
    assert stats[stage].misses == 1 and stats[stage].disk_hits == 0
    for stored in STORED:
        if stored in stats:
            assert stats[stored].misses == 0, stored
    assert stats["propagation"].disk_hits == 1


class TestStageRoundTrips:
    def test_every_persistable_stage_has_a_codec(self):
        for stage in Stage:
            assert (codec_for(stage.value) is not None) == (stage.value in STORED), stage
        assert codec_for("dataset") is None

    def test_topology(self, tiny_study, tmp_path):
        warm = _warm_study(tiny_study, tmp_path)
        fresh = tiny_study.topology()
        loaded = warm.topology()
        assert warm.cache.stats_for("topology").disk_hits == 1
        assert loaded.graph.adjacency_rows() == fresh.graph.adjacency_rows()
        assert loaded.tiers.tiers == fresh.tiers.tiers
        assert loaded.tiers.tier1 == fresh.tiers.tier1
        assert loaded.originated == fresh.originated
        assert list(loaded.originated) == list(fresh.originated)

    def test_policies(self, tiny_study, tmp_path):
        warm = _warm_study(tiny_study, tmp_path)
        fresh = tiny_study.policies()
        loaded = warm.policies()
        assert warm.cache.stats_for("policies").disk_hits == 1
        assert loaded.vantage_ases == fresh.vantage_ases
        assert loaded.looking_glass_ases == fresh.looking_glass_ases
        assert loaded.assignment.policies == fresh.assignment.policies
        assert list(loaded.assignment.policies) == list(fresh.assignment.policies)

    def test_propagation(self, tiny_study, tmp_path):
        warm = _warm_study(tiny_study, tmp_path)
        fresh = tiny_study.propagation()
        loaded = warm.propagation()
        assert warm.cache.stats_for("propagation").disk_hits == 1
        assert loaded.message_count == fresh.message_count
        assert loaded.truncated_prefixes == fresh.truncated_prefixes
        assert loaded.observed_ases == fresh.observed_ases
        # The columns are stored as they are: every table and column equal.
        assert loaded.rib == fresh.rib
        for asn in fresh.observed_ases:
            assert list(loaded.table_of(asn).entries()) == list(
                fresh.table_of(asn).entries()
            )

    def test_propagation_decodes_alone(self, tiny_study, tmp_path):
        # The stored result holds no upstream artifact, so decoding it
        # loads no topology and no policies.
        warm = _warm_study(tiny_study, tmp_path)
        warm.propagation()
        assert warm.cache.stats_dict() == {
            "propagation": {"hits": 0, "disk_hits": 1, "misses": 0}
        }

    def test_propagation_best_route_identity(self, tiny_study, tmp_path):
        warm = _warm_study(tiny_study, tmp_path)
        loaded = warm.propagation()
        for asn in loaded.observed_ases:
            for entry in loaded.table_of(asn).entries():
                if entry.best is not None:
                    assert any(route is entry.best for route in entry.routes)
                    assert entry.best not in entry.alternatives()

    def test_observation(self, tiny_study, tmp_path):
        warm = _warm_study(tiny_study, tmp_path)
        loaded = warm.observation()
        stats = warm.cache.stats
        assert stats["observation"].misses == 1 and stats["observation"].disk_hits == 0
        # The inventory reads the disk-loaded topology and plan, and no
        # propagation.
        assert stats["policies"].disk_hits == 1 and stats["policies"].misses == 0
        assert "propagation" not in stats
        assert loaded == tiny_study.observation()
        # The dataset's glasses wrap the decoded propagation artifact's views.
        dataset = warm.dataset()
        result = warm.propagation()
        assert set(dataset.looking_glasses) == set(tiny_study.dataset().looking_glasses)
        for asn, glass in dataset.looking_glasses.items():
            assert glass.table is result.table_of(asn)
        # The collector table, built on demand, reads the decoded RIB.
        assert dataset.collector.entries == tiny_study.dataset().collector.entries

    def test_irr(self, tiny_study, tmp_path):
        warm = _warm_study(tiny_study, tmp_path)
        assert warm.irr().render() == tiny_study.irr().render()
        assert warm.cache.stats_for("irr").disk_hits == 1

    def test_analysis(self, tiny_study, tmp_path):
        warm = _warm_study(tiny_study, tmp_path)
        fresh = tiny_study.analysis()
        loaded = warm.analysis()
        _assert_derived_from_disk(warm, "analysis")
        assert warm.cache.stats_for("irr").disk_hits == 1
        assert loaded.index.stats() == fresh.index.stats()
        assert loaded.index.prefixes == fresh.index.prefixes
        assert loaded.index.paths == fresh.index.paths
        assert loaded.index.collapsed == fresh.index.collapsed
        assert loaded.index.adjacency == fresh.index.adjacency
        assert loaded.index.rows_by_prefix == fresh.index.rows_by_prefix
        # The Looking Glass and best rows are read from the decoded RIB.
        assert loaded.import_typicality() == fresh.import_typicality()
        assert loaded.irr_typicality() == fresh.irr_typicality()
        assert loaded.consistency_by_router() == fresh.consistency_by_router()
        assert loaded.all_provider_reports() == fresh.all_provider_reports()
        # The rebuilt engine is the stage cache's one memo.
        assert warm.analysis() is loaded


class TestResultEquality:
    def test_suite_json_identical_fresh_cold_warm(self, tiny_study, tmp_path):
        disk = DiskStore(tmp_path)
        fresh = run_suite(tiny_study, scenario="tiny").to_json(include_timing=False)
        cold = run_suite(
            Study(tiny_study.config, cache=StageCache(disk=disk)), scenario="tiny"
        ).to_json(include_timing=False)
        warm_study = Study(tiny_study.config, cache=StageCache(disk=disk))
        warm = run_suite(warm_study, scenario="tiny").to_json(include_timing=False)
        assert fresh == cold == warm
        for stage in STORED:
            assert warm_study.cache.stats_for(stage).misses == 0, stage
            assert warm_study.cache.stats_for(stage).disk_hits == 1, stage

    def test_corrupt_artifact_falls_back_to_build(self, tiny_study, tmp_path):
        disk = DiskStore(tmp_path)
        cold = Study(tiny_study.config, cache=StageCache(disk=disk))
        cold.propagation()
        key = cold.stage_key(Stage.PROPAGATION)
        path = disk.path_for("propagation", key)
        path.write_bytes(path.read_bytes()[:100])  # truncate: header survives?
        warm = Study(tiny_study.config, cache=StageCache(disk=disk))
        loaded = warm.propagation()
        stats = warm.cache.stats_for("propagation")
        assert stats.misses == 1  # rebuilt, not decoded
        assert loaded.message_count == tiny_study.propagation().message_count
