"""Tests for the staged Study: lazy builds, cache accounting, with_() reuse."""

from dataclasses import replace

import pytest

from repro.data.dataset import StudyDataset
from repro.exceptions import ExperimentError, SimulationError
from repro.session import (
    IrrParameters,
    ObservationParameters,
    Stage,
    StageCache,
    Study,
    StudyConfig,
)
from repro.simulation.policies import PolicyParameters
from repro.topology.generator import GeneratorParameters

#: A deliberately tiny configuration so stage rebuilds stay cheap.
TINY = StudyConfig(
    topology=GeneratorParameters(
        seed=11, tier1_count=3, tier2_count=6, tier3_count=10, stub_count=40
    ),
    observation=ObservationParameters(
        looking_glass_count=4, tier1_looking_glass_count=2, collector_vantage_count=6
    ),
)


@pytest.fixture
def cache() -> StageCache:
    return StageCache()


@pytest.fixture
def study(cache) -> Study:
    return Study(TINY, cache=cache)


class TestStageAccounting:
    def test_dataset_builds_every_stage_once(self, study, cache):
        study.dataset()
        for stage in Stage:
            stats = cache.stats_for(stage.value)
            # The analysis stage is lazy: assembly does not compile the
            # measurement index until an analysis query needs it.
            expected = 0 if stage is Stage.ANALYSIS else 1
            assert stats.builds == expected, stage
        study.analysis()
        assert cache.stats_for(Stage.ANALYSIS.value).builds == 1

    def test_repeated_dataset_is_cached_and_identical(self, study, cache):
        first = study.dataset()
        second = study.dataset()
        assert first is second
        assert cache.stats_for("dataset").hits == 1
        for stage in Stage:
            if stage is Stage.ANALYSIS:
                continue
            assert cache.stats_for(stage.value).builds == 1

    def test_lazy_stage_access_builds_only_upstream(self, study, cache):
        study.policies()
        assert cache.stats_for("topology").builds == 1
        assert cache.stats_for("policies").builds == 1
        assert cache.stats_for("propagation").builds == 0
        assert cache.stats_for("observation").builds == 0
        assert cache.stats_for("irr").builds == 0


class TestWithUpstreamReuse:
    def test_policy_override_reuses_topology(self, study, cache):
        base = study.dataset()
        variant = study.with_(policy=replace(TINY.policy, seed=999))
        varied = variant.dataset()
        assert varied is not base
        assert varied.internet is base.internet
        topology = cache.stats_for("topology")
        assert topology.builds == 1
        assert topology.hits >= 1
        assert cache.stats_for("policies").builds == 2
        assert cache.stats_for("propagation").builds == 2

    def test_irr_override_reuses_everything_upstream(self, study, cache):
        base = study.dataset()
        varied = study.with_(irr=IrrParameters(registration_probability=0.2)).dataset()
        assert varied.result is base.result
        assert varied.collector is base.collector
        assert varied.irr is not base.irr
        assert cache.stats_for("propagation").builds == 1
        assert cache.stats_for("irr").builds == 2

    def test_observation_override_reuses_topology_only(self, study, cache):
        study.dataset()
        study.with_(
            observation=replace(TINY.observation, collector_vantage_count=4)
        ).dataset()
        assert cache.stats_for("topology").builds == 1
        assert cache.stats_for("policies").builds == 2

    def test_topology_override_rebuilds_everything(self, study, cache):
        study.dataset()
        study.with_(topology=replace(TINY.topology, seed=12)).dataset()
        for stage in Stage:
            if stage is Stage.ANALYSIS:
                continue  # lazy: only built when an analysis query runs
            assert cache.stats_for(stage.value).builds == 2, stage

    def test_with_shares_the_cache(self, study):
        variant = study.with_(policy=replace(TINY.policy, seed=5))
        assert variant.cache is study.cache

    def test_sweep_builds_topology_once(self, study, cache):
        for seed in range(5):
            study.with_(policy=replace(TINY.policy, seed=seed)).dataset()
        assert cache.stats_for("topology").builds == 1

    def test_seeded_changes_every_stage_key(self, study):
        derived = study.seeded(42)
        for stage in Stage:
            assert derived.stage_key(stage) != study.stage_key(stage)

    def test_same_config_same_keys(self, study, cache):
        twin = Study(TINY, cache=cache)
        for stage in Stage:
            assert twin.stage_key(stage) == study.stage_key(stage)


class TestDatasetCompatibilityView:
    def test_assembled_dataset_is_consistent(self, study):
        dataset = study.dataset()
        assert isinstance(dataset, StudyDataset)
        assert set(dataset.looking_glasses) == set(dataset.looking_glass_ases)
        assert set(dataset.as_info) == set(dataset.vantage_ases) | set(
            dataset.looking_glass_ases
        )
        assert len(dataset.looking_glass_ases) == TINY.observation.looking_glass_count

    def test_invalid_config_raises_at_construction(self, cache):
        with pytest.raises(SimulationError):
            Study(
                replace(TINY, observation=ObservationParameters(collector_vantage_count=0)),
                cache=cache,
            )


class TestConfigConversion:
    def test_parameters_are_hashable(self):
        assert hash(StudyConfig()) == hash(StudyConfig())
        assert hash(TINY) == hash(replace(TINY))
        assert hash(PolicyParameters()) == hash(PolicyParameters())


class TestStageView:
    def test_exposes_required_stages(self, study):
        view = study.view(frozenset({Stage.TOPOLOGY, Stage.PROPAGATION}))
        assert len(view.internet.graph) > 0
        assert view.result.observed_ases
        assert view.providers_under_study(2)

    def test_blocks_undeclared_stages(self, study):
        view = study.view(frozenset({Stage.TOPOLOGY}))
        with pytest.raises(ExperimentError, match="propagation"):
            view.result
        with pytest.raises(ExperimentError, match="observation"):
            view.looking_glass_of(view.tier1_ases[0])
        with pytest.raises(ExperimentError, match="irr"):
            view.irr
        with pytest.raises(ExperimentError, match="policies"):
            view.assignment

    def test_restricted_narrows(self, study):
        narrow = study.view(frozenset({Stage.IRR}))
        assert narrow.irr is study.irr()
        with pytest.raises(ExperimentError, match="topology"):
            narrow.internet
