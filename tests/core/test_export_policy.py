"""Tests for the SA-prefix (export-policy) inference — the Fig. 4 algorithm."""

import pytest
from helpers import all_selectively_announced, is_customer_of, selective_transits
from paper_scenarios import (
    figure3_scenario,
    figure8_multihomed_scenario,
    figure8_singlehomed_scenario,
)

from repro.core.export_policy import ExportPolicyAnalyzer
from repro.exceptions import InferenceError
from repro.simulation.scenario import figure5_scenario
from repro.topology.graph import Relationship


class TestScenarioDetection:
    def test_figure3_sa_prefix_detected_at_provider_d(self):
        scenario = figure3_scenario()
        result = scenario.run()
        analyzer = ExportPolicyAnalyzer(scenario.internet.graph)
        report = analyzer.find_sa_prefixes(
            scenario.focus_provider, result.table_of(scenario.focus_provider)
        )
        assert report.sa_prefix_count == 1
        item = report.sa_prefixes[0]
        assert item.prefix == scenario.focus_prefix
        assert item.origin_as == 100
        assert item.next_hop_as == 11
        assert item.next_hop_relationship is Relationship.PEER
        assert item.customer_path[0] == scenario.focus_provider
        assert item.customer_path[-1] == 100

    def test_figure3_provider_c_has_no_sa_prefix(self):
        scenario = figure3_scenario()
        result = scenario.run()
        analyzer = ExportPolicyAnalyzer(scenario.internet.graph)
        report = analyzer.find_sa_prefixes(30, result.table_of(30))
        assert report.sa_prefix_count == 0
        assert report.customer_route_prefix_count == 1

    def test_figure5_sa_prefix_detected_at_as1(self):
        scenario = figure5_scenario()
        result = scenario.run()
        analyzer = ExportPolicyAnalyzer(scenario.internet.graph)
        report = analyzer.find_sa_prefixes(1, result.table_of(1))
        assert report.sa_prefix_count == 1
        assert report.sa_prefixes[0].next_hop_as == 3549
        assert report.percent_sa == 100.0

    def test_figure8_scenarios_detected(self):
        for scenario in (figure8_multihomed_scenario(), figure8_singlehomed_scenario()):
            result = scenario.run()
            analyzer = ExportPolicyAnalyzer(scenario.internet.graph)
            report = analyzer.find_sa_prefixes(
                scenario.focus_provider, result.table_of(scenario.focus_provider)
            )
            assert scenario.focus_prefix in report.sa_prefix_set(), scenario.name

    def test_unknown_provider_rejected(self):
        scenario = figure3_scenario()
        result = scenario.run()
        analyzer = ExportPolicyAnalyzer(scenario.internet.graph)
        with pytest.raises(InferenceError):
            analyzer.find_sa_prefixes(999, result.table_of(scenario.focus_provider))


class TestDatasetPrevalence:
    def test_reports_cover_all_providers(self, sa_reports, provider_tables):
        assert set(sa_reports) == set(provider_tables)

    def test_tier1s_have_sa_prefixes(self, sa_reports):
        total_sa = sum(report.sa_prefix_count for report in sa_reports.values())
        assert total_sa > 0

    def test_sa_prefixes_are_minority(self, sa_reports):
        for report in sa_reports.values():
            assert 0.0 <= report.percent_sa < 50.0

    def test_sa_prefix_ground_truth_overlap(self, dataset, sa_reports):
        """Most detected SA prefixes trace back to configured selective or
        scoped announcements (origin-level) or selective transits."""
        configured = all_selectively_announced(dataset.assignment)
        transit_origins = selective_transits(dataset.assignment)
        graph = dataset.ground_truth_graph
        explained = 0
        total = 0
        for report in sa_reports.values():
            for item in report.sa_prefixes:
                total += 1
                if item.prefix in configured:
                    explained += 1
                    continue
                # Otherwise an intermediate selective transit must sit on a
                # provider-customer path between provider and origin.
                if any(
                    is_customer_of(graph, item.origin_as, transit)
                    or transit == item.origin_as
                    for transit in transit_origins
                ):
                    explained += 1
        assert total > 0
        assert explained / total > 0.8

    def test_without_selective_policies_no_sa_prefixes(self, dataset):
        """Ablation: re-propagate with all-announce policies; SA prefixes vanish."""
        from repro.simulation.policies import PolicyGenerator, PolicyParameters
        from repro.simulation.propagation import PropagationEngine

        plain = PolicyGenerator(
            PolicyParameters(
                seed=1,
                selective_announcement_probability=0.0,
                transit_selective_probability=0.0,
                peer_withhold_probability=0.0,
                atypical_scheme_probability=0.0,
                atypical_neighbor_probability=0.0,
                prefix_based_fraction=0.0,
            )
        ).generate(dataset.internet)
        providers = dataset.internet.providers_under_study(2)
        result = PropagationEngine(
            dataset.internet, plain, observed_ases=providers
        ).run()
        analyzer = ExportPolicyAnalyzer(dataset.ground_truth_graph)
        for provider in providers:
            report = analyzer.find_sa_prefixes(provider, result.table_of(provider))
            assert report.sa_prefix_count == 0

    def test_customer_reports(self, dataset, graph, sa_reports, provider_tables):
        analyzer = ExportPolicyAnalyzer(graph)
        rows = analyzer.analyze_customers(sa_reports, provider_tables, min_prefixes=1)
        assert rows, "expected customers under all studied providers"
        for row in rows:
            assert 0 <= row.sa_prefix_count <= row.prefix_count
            assert 0.0 <= row.percent_sa <= 100.0
            for provider in sa_reports:
                assert is_customer_of(graph, row.customer, provider)
        # Rows are sorted by SA count, and at least one has SA prefixes.
        assert rows[0].sa_prefix_count >= rows[-1].sa_prefix_count

    def test_missing_prefix_count_with_ground_truth(self, dataset, graph, provider_tables):
        analyzer = ExportPolicyAnalyzer(graph)
        provider = next(iter(provider_tables))
        report = analyzer.find_sa_prefixes(
            provider,
            provider_tables[provider],
            known_customer_prefixes=dataset.internet.originated,
        )
        assert report.missing_prefix_count >= 0
