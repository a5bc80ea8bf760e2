"""Tests for the study-dataset assembly."""

import pytest
from helpers import small_dataset

from repro.data.dataset import StudyDataset
from repro.exceptions import SimulationError
from repro.session import ObservationParameters, StageCache, Study, StudyConfig, get_scenario
from repro.topology.generator import GeneratorParameters

#: The observation plan ``small_dataset`` was assembled with.
SMALL_OBSERVATION = get_scenario("small").config().observation


@pytest.fixture(scope="module")
def dataset() -> StudyDataset:
    return small_dataset()


class TestParameters:
    def test_defaults_valid(self):
        StudyConfig().validate()

    def test_parameters_are_frozen(self):
        # Assembly can never be affected by callers mutating the config
        # after (or during) a build.
        config = StudyConfig()
        with pytest.raises(AttributeError):
            config.observation.seed = 1
        with pytest.raises(AttributeError):
            config.topology.stub_count = 5
        with pytest.raises(AttributeError):
            config.policy.seed = 2

    def test_parameters_are_hashable(self):
        assert hash(StudyConfig()) == hash(StudyConfig())
        assert hash(GeneratorParameters(seed=1)) != hash(GeneratorParameters(seed=2))

    def test_rejects_too_many_tier1_looking_glasses(self):
        params = ObservationParameters(looking_glass_count=2, tier1_looking_glass_count=5)
        with pytest.raises(SimulationError):
            params.validate()

    def test_rejects_no_vantages(self):
        with pytest.raises(SimulationError):
            ObservationParameters(collector_vantage_count=0).validate()


class TestAssembly:
    def test_looking_glass_count(self, dataset):
        assert len(dataset.looking_glass_ases) == SMALL_OBSERVATION.looking_glass_count
        assert set(dataset.looking_glasses) == set(dataset.looking_glass_ases)

    def test_tier1_looking_glasses_present(self, dataset):
        tier1_lg = set(dataset.looking_glass_ases) & set(dataset.tier1_ases)
        assert len(tier1_lg) >= SMALL_OBSERVATION.tier1_looking_glass_count

    def test_vantages_include_tier1(self, dataset):
        assert set(dataset.tier1_ases) <= set(dataset.vantage_ases)

    def test_collector_covers_vantages(self, dataset):
        assert dataset.collector.vantages() == sorted(dataset.vantage_ases)

    def test_collector_sees_most_prefixes(self, dataset):
        all_prefixes = set(dataset.internet.all_prefixes())
        seen = set(dataset.collector.prefixes())
        # Scoped announcements can hide a few prefixes entirely, but the
        # overwhelming majority must be visible from the collector.
        assert len(seen) / len(all_prefixes) > 0.9

    def test_looking_glass_tables_expose_local_pref(self, dataset):
        glass = dataset.looking_glass_of(dataset.looking_glass_ases[0])
        prefs = {route.local_pref for route in glass.best_routes()}
        assert len(prefs) > 1

    def test_looking_glass_of_unknown_as_raises(self, dataset):
        with pytest.raises(SimulationError):
            dataset.looking_glass_of(999_999)

    def test_irr_populated(self, dataset):
        assert len(dataset.irr) > 0
        assert len(dataset.irr) <= len(dataset.internet.graph)

    def test_as_info_inventory(self, dataset):
        assert set(dataset.as_info) == set(dataset.vantage_ases) | set(
            dataset.looking_glass_ases
        )
        for info in dataset.as_info.values():
            assert info.degree == dataset.ground_truth_graph.degree(info.asn)
            assert info.location in {"NA", "Eu", "Au", "As"}
            assert info.tier >= 1

    def test_providers_under_study_are_largest_tier1s(self, dataset):
        providers = dataset.internet.providers_under_study(3)
        assert len(providers) == 3
        assert set(providers) <= set(dataset.tier1_ases)
        degrees = [dataset.ground_truth_graph.degree(asn) for asn in providers]
        assert degrees == sorted(degrees, reverse=True)

    def test_no_truncated_prefixes(self, dataset):
        assert dataset.result.truncated_prefixes == []

    def test_small_dataset_is_memoised(self):
        assert small_dataset() is small_dataset()

    def test_build_dataset_respects_topology_override(self):
        config = StudyConfig(
            topology=GeneratorParameters(
                seed=3, tier1_count=3, tier2_count=5, tier3_count=8, stub_count=30
            ),
            observation=ObservationParameters(
                looking_glass_count=4,
                tier1_looking_glass_count=2,
                collector_vantage_count=6,
            ),
        )
        dataset = Study(config, cache=StageCache()).dataset()
        assert len(dataset.internet.graph) == 46
        assert len(dataset.looking_glass_ases) == 4
