"""Tests for persistence (Figs. 6/7), peer export (Table 10), community
semantics (Appendix / Fig. 9 / Table 11) and policy atoms."""

import pytest

from repro.analysis.persistence import persistence_series, uptime_distribution
from repro.core.atoms import PolicyAtomAnalyzer
from repro.core.community import CommunityAnalyzer, bucket_of
from repro.core.export_policy import ExportPolicyAnalyzer
from repro.core.peer_export import PeerExportAnalyzer
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.simulation.timeline import Timeline, TimelineParameters
from repro.topology.generator import GeneratorParameters, InternetGenerator
from repro.topology.graph import Relationship


@pytest.fixture(scope="module")
def timeline_snapshots():
    """A short timeline over a tiny Internet with aggressive churn."""
    internet = InternetGenerator(
        GeneratorParameters(seed=31, tier1_count=3, tier2_count=6, tier3_count=10, stub_count=50)
    ).generate()
    assignment = PolicyGenerator(PolicyParameters(seed=77)).generate(internet)
    provider = internet.tier1[0]
    timeline = Timeline(
        internet,
        assignment,
        observed_ases=[provider],
        parameters=TimelineParameters(
            snapshot_count=6, churn_probability=0.5, appear_probability=0.05,
            disappear_probability=0.15, seed=5,
        ),
    )
    return internet, provider, timeline.run()


class TestPersistence:
    def test_series_lengths(self, timeline_snapshots):
        internet, provider, snapshots = timeline_snapshots
        series = persistence_series(snapshots, provider, internet.graph)
        assert len(series.snapshot_indices) == 6
        assert len(series.all_prefix_counts) == 6
        assert len(series.sa_prefix_counts) == 6
        assert series.as_rows()[0][0] == 0

    def test_sa_counts_bounded_by_totals(self, timeline_snapshots):
        internet, provider, snapshots = timeline_snapshots
        series = persistence_series(snapshots, provider, internet.graph)
        for total, sa in zip(series.all_prefix_counts, series.sa_prefix_counts):
            assert 0 <= sa <= total

    def test_sa_prefixes_persist_across_snapshots(self, timeline_snapshots):
        internet, provider, snapshots = timeline_snapshots
        series = persistence_series(snapshots, provider, internet.graph)
        assert any(count > 0 for count in series.sa_prefix_counts)

    def test_uptime_distribution_consistency(self, timeline_snapshots):
        internet, provider, snapshots = timeline_snapshots
        distribution = uptime_distribution(snapshots, provider, internet.graph)
        assert distribution.snapshot_count == 6
        for prefix, uptime in distribution.uptime.items():
            assert 1 <= uptime <= 6
            assert distribution.sa_uptime.get(prefix, 0) <= uptime
        remaining = distribution.remaining_sa_prefixes()
        shifting = distribution.shifting_prefixes()
        assert remaining.isdisjoint(shifting)
        assert remaining | shifting == distribution.ever_sa_prefixes()

    def test_histogram_totals_match(self, timeline_snapshots):
        internet, provider, snapshots = timeline_snapshots
        distribution = uptime_distribution(snapshots, provider, internet.graph)
        rows = distribution.histogram()
        assert len(rows) == 6
        total_remaining = sum(row[1] for row in rows)
        total_shifting = sum(row[2] for row in rows)
        assert total_remaining == len(distribution.remaining_sa_prefixes())
        assert total_shifting == len(distribution.shifting_prefixes())

    def test_churn_produces_shifting_prefixes(self, timeline_snapshots):
        internet, provider, snapshots = timeline_snapshots
        distribution = uptime_distribution(snapshots, provider, internet.graph)
        # With churn probability 0.5 over 6 snapshots some prefixes shift.
        assert distribution.percent_shifting > 0.0


class TestPeerExport:
    def test_most_peers_announce_directly(self, dataset, graph, provider_tables):
        analyzer = PeerExportAnalyzer(graph)
        reports = analyzer.analyze_many(
            provider_tables, originated=dataset.internet.originated
        )
        assert reports
        for report in reports.values():
            assert report.peer_count > 0
            assert report.percent_announcing > 60.0

    def test_behaviour_counts_bounded(self, dataset, graph, provider_tables):
        analyzer = PeerExportAnalyzer(graph)
        provider = next(iter(provider_tables))
        report = analyzer.analyze(
            provider, provider_tables[provider], originated=dataset.internet.originated
        )
        for peer in report.peers:
            assert 0 <= peer.directly_received <= peer.originated_prefixes
            assert graph.relationship(provider, peer.peer) is Relationship.PEER

    def test_observed_origination_fallback(self, dataset, graph, provider_tables):
        analyzer = PeerExportAnalyzer(graph)
        provider = next(iter(provider_tables))
        report = analyzer.analyze(provider, provider_tables[provider])
        assert report.peer_count > 0

    def test_threshold_changes_classification(self, dataset, graph, provider_tables):
        analyzer = PeerExportAnalyzer(graph)
        provider = next(iter(provider_tables))
        strict = analyzer.analyze(
            provider, provider_tables[provider],
            originated=dataset.internet.originated, full_export_threshold=1.0,
        )
        lenient = analyzer.analyze(
            provider, provider_tables[provider],
            originated=dataset.internet.originated, full_export_threshold=0.5,
        )
        assert lenient.announcing_peer_count >= strict.announcing_peer_count


class TestCommunitySemantics:
    def test_fig9_ranking_is_sorted(self, dataset, glasses):
        analyzer = CommunityAnalyzer()
        ranked = analyzer.prefix_counts_by_rank(glasses[0])
        counts = [count for _, count in ranked]
        assert counts == sorted(counts, reverse=True)
        assert all(count > 0 for count in counts)

    def test_published_plan_semantics_match_ground_truth(self, dataset, graph, glasses):
        analyzer = CommunityAnalyzer()
        for glass in glasses:
            plan = dataset.assignment.policies[glass.asn].community_plan
            if plan is None:
                continue
            semantics = analyzer.infer_semantics(glass, published_plan=plan)
            for bucket, relationship in semantics.value_to_relationship.items():
                # The bucket base must map back to the same relationship range.
                from repro.bgp.attributes import Community

                representative = Community(glass.asn, bucket * 1000)
                assert plan.relationship_of(representative) is relationship

    def test_inferred_semantics_verify_relationships(self, dataset, graph, glasses):
        analyzer = CommunityAnalyzer()
        verified_total = 0
        verifiable_total = 0
        for glass in glasses:
            if dataset.assignment.policies[glass.asn].community_plan is None:
                continue
            semantics = analyzer.infer_semantics(glass)
            result = analyzer.verify_relationships(glass, semantics, graph)
            verified_total += result.verified_neighbors
            verifiable_total += result.verifiable_neighbors
        assert verifiable_total > 0
        assert verified_total / verifiable_total > 0.85

    def test_bucket_of_groups_ranges(self):
        from repro.bgp.attributes import Community

        assert bucket_of(Community(12859, 1010)) == bucket_of(Community(12859, 1020))
        assert bucket_of(Community(12859, 1010)) != bucket_of(Community(12859, 2010))

    def test_non_tagging_as_yields_no_semantics(self, dataset, glasses):
        analyzer = CommunityAnalyzer()
        non_tagging = [
            glass
            for glass in glasses
            if dataset.assignment.policies[glass.asn].community_plan is None
        ]
        if not non_tagging:
            pytest.skip("every Looking Glass AS tags under this seed")
        semantics = analyzer.infer_semantics(non_tagging[0])
        assert semantics.value_to_relationship == {}


class TestPolicyAtoms:
    def test_atoms_partition_prefixes(self, dataset):
        analyzer = PolicyAtomAnalyzer()
        atoms = analyzer.compute_atoms(dataset.collector)
        prefixes = [prefix for atom in atoms for prefix in atom.prefixes]
        assert len(prefixes) == len(set(prefixes))
        assert set(prefixes) == set(dataset.collector.prefixes())

    def test_atoms_sorted_by_size(self, dataset):
        analyzer = PolicyAtomAnalyzer()
        atoms = analyzer.compute_atoms(dataset.collector)
        sizes = [atom.size for atom in atoms]
        assert sizes == sorted(sizes, reverse=True)

    def test_statistics(self, dataset, graph, sa_reports):
        analyzer = PolicyAtomAnalyzer()
        atoms = analyzer.compute_atoms(dataset.collector)
        sa_prefixes = set()
        for report in sa_reports.values():
            sa_prefixes |= report.sa_prefix_set()
        stats = analyzer.statistics(atoms, sa_prefixes=sa_prefixes)
        assert stats.atom_count == len(atoms)
        assert stats.prefix_count == sum(atom.size for atom in atoms)
        assert stats.largest_atom_size >= 1
        assert stats.average_atom_size >= 1.0
        assert 0 <= stats.atoms_with_sa_prefixes <= stats.atom_count
        assert stats.single_origin_atoms >= 1

    def test_empty_statistics(self):
        stats = PolicyAtomAnalyzer().statistics([])
        assert stats.average_atom_size == 0.0
