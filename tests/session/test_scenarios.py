"""Tests for the scenario registry and the built-in presets."""

from dataclasses import replace

import pytest

from repro.exceptions import ExperimentError
from repro.session import (
    ObservationParameters,
    StageCache,
    Study,
    StudyConfig,
    all_scenarios,
    get_scenario,
    register_scenario,
)
from repro.session.scenarios import _SCENARIOS

EXPECTED = {"standard", "small", "dense-peering", "sparse-multihoming", "large"}


class TestRegistry:
    def test_builtin_presets_registered(self):
        assert EXPECTED <= {scenario.name for scenario in all_scenarios()}

    def test_get_scenario_unknown_name(self):
        with pytest.raises(ExperimentError):
            get_scenario("does-not-exist")

    def test_all_scenarios_sorted_and_described(self):
        scenarios = all_scenarios()
        assert [s.name for s in scenarios] == sorted(s.name for s in scenarios)
        assert all(s.description for s in scenarios)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ExperimentError):
            register_scenario("standard", "again", StudyConfig)

    def test_register_new_scenario(self, monkeypatch):
        monkeypatch.delitem(_SCENARIOS, "tiny-test", raising=False)
        scenario = register_scenario(
            "tiny-test", "a registered-on-the-fly scenario", StudyConfig
        )
        try:
            assert get_scenario("tiny-test") is scenario
            assert isinstance(scenario.study(cache=StageCache()), Study)
        finally:
            _SCENARIOS.pop("tiny-test", None)

    def test_configs_are_pairwise_distinct(self):
        configs = [get_scenario(name).config() for name in sorted(EXPECTED)]
        assert len(set(configs)) == len(configs)


def _scaled_down(config: StudyConfig) -> StudyConfig:
    """The preset with its topology shrunk so building it stays test-cheap."""
    return replace(
        config,
        topology=replace(
            config.topology,
            tier1_count=4,
            tier2_count=8,
            tier3_count=14,
            stub_count=60,
        ),
        observation=ObservationParameters(
            looking_glass_count=5, tier1_looking_glass_count=2, collector_vantage_count=8
        ),
    )


class TestPresetsAreObservablyDistinct:
    """Scaled-down builds of the presets must differ in what the collector sees."""

    @pytest.fixture(scope="class")
    def datasets(self):
        cache = StageCache()
        return {
            name: Study(_scaled_down(get_scenario(name).config()), cache=cache).dataset()
            for name in ("standard", "dense-peering", "sparse-multihoming")
        }

    def test_dense_peering_adds_edges(self, datasets):
        assert (
            datasets["dense-peering"].ground_truth_graph.edge_count()
            > datasets["standard"].ground_truth_graph.edge_count()
        )

    def test_sparse_multihoming_reduces_multihoming(self, datasets):
        def multihomed(dataset):
            graph = dataset.ground_truth_graph
            return sum(
                1
                for asn in graph.ases()
                if not graph.customers_of(asn) and len(graph.providers_of(asn)) > 1
            )

        assert multihomed(datasets["sparse-multihoming"]) < multihomed(
            datasets["standard"]
        )

    def test_observable_tables_differ(self, datasets):
        paths = {
            name: frozenset(str(path) for path in dataset.collector.all_paths())
            for name, dataset in datasets.items()
        }
        assert paths["standard"] != paths["dense-peering"]
        assert paths["standard"] != paths["sparse-multihoming"]
        assert paths["dense-peering"] != paths["sparse-multihoming"]
