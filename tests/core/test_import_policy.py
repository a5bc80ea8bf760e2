"""Tests for the import-policy (LOCAL_PREF typicality) inference."""

import pytest

from repro.bgp.rib import LocRib
from repro.bgp.route import Route
from repro.core.import_policy import ImportPolicyAnalyzer
from repro.data.rpsl import AutNumObject, IrrDatabase, PolicyLine, local_pref_to_rpsl_pref
from repro.exceptions import InferenceError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.collector import LookingGlass
from repro.topology.graph import AnnotatedASGraph


def small_graph():
    """AS10's neighbors: AS1 provider, AS2 peer, AS3 and AS4 customers."""
    return AnnotatedASGraph.from_edges(
        provider_customer=[(1, 10), (10, 3), (10, 4)],
        peer_peer=[(10, 2)],
    )


def glass_with_routes(routes):
    table = LocRib(owner=10)
    for route in routes:
        table.add_route(route)
    return LookingGlass(10, table)


def route(prefix, path, local_pref):
    return Route(
        prefix=Prefix.parse(prefix), as_path=ASPath.parse(path), local_pref=local_pref
    )


class TestLookingGlassTypicality:
    def test_typical_prefix(self):
        glass = glass_with_routes(
            [
                route("10.9.0.0/16", "3 9", 110),
                route("10.9.0.0/16", "2 9", 100),
                route("10.9.0.0/16", "1 9", 90),
            ]
        )
        result = ImportPolicyAnalyzer(small_graph()).analyze_looking_glass(glass)
        assert result.comparable_prefixes == 1
        assert result.typical_prefixes == 1
        assert result.percent_typical == 100.0

    def test_atypical_prefix_detected(self):
        glass = glass_with_routes(
            [
                route("10.9.0.0/16", "3 9", 90),   # customer route below peer
                route("10.9.0.0/16", "2 9", 100),
            ]
        )
        result = ImportPolicyAnalyzer(small_graph()).analyze_looking_glass(glass)
        assert result.comparable_prefixes == 1
        assert result.typical_prefixes == 0
        assert result.atypical_examples == [Prefix.parse("10.9.0.0/16")]

    def test_peer_vs_provider_ordering_checked(self):
        glass = glass_with_routes(
            [
                route("10.9.0.0/16", "2 9", 90),   # peer
                route("10.9.0.0/16", "1 9", 100),  # provider above peer: atypical
            ]
        )
        result = ImportPolicyAnalyzer(small_graph()).analyze_looking_glass(glass)
        assert result.typical_prefixes == 0

    def test_single_class_prefixes_not_comparable(self):
        glass = glass_with_routes(
            [
                route("10.9.0.0/16", "3 9", 110),
                route("10.9.0.0/16", "4 9", 105),
            ]
        )
        result = ImportPolicyAnalyzer(small_graph()).analyze_looking_glass(glass)
        assert result.comparable_prefixes == 0
        assert result.percent_typical == 100.0

    def test_equal_preference_across_classes_is_typical(self):
        glass = glass_with_routes(
            [
                route("10.9.0.0/16", "3 9", 100),
                route("10.9.0.0/16", "2 9", 100),
            ]
        )
        result = ImportPolicyAnalyzer(small_graph()).analyze_looking_glass(glass)
        # Equal values do not violate the strict order in either direction is
        # false — customer must be strictly higher, so this is atypical.
        assert result.typical_prefixes == 0

    def test_unknown_neighbors_ignored(self):
        glass = glass_with_routes(
            [
                route("10.9.0.0/16", "999 9", 50),
                route("10.9.0.0/16", "3 9", 110),
            ]
        )
        result = ImportPolicyAnalyzer(small_graph()).analyze_looking_glass(glass)
        assert result.comparable_prefixes == 0


class TestDatasetTypicality:
    def test_most_prefixes_typical_on_dataset(self, dataset, graph, glasses):
        analyzer = ImportPolicyAnalyzer(graph)
        results = analyzer.analyze_many(glasses)
        assert results
        comparable = [r for r in results if r.comparable_prefixes >= 20]
        assert comparable, "expected Looking Glass ASes with comparable prefixes"
        for result in comparable:
            assert result.percent_typical > 85.0

    def test_atypical_fraction_is_small_overall(self, dataset, graph, glasses):
        analyzer = ImportPolicyAnalyzer(graph)
        results = analyzer.analyze_many(glasses)
        total = sum(r.comparable_prefixes for r in results)
        typical = sum(r.typical_prefixes for r in results)
        assert total > 0
        assert typical / total > 0.9


class TestIrrTypicality:
    def test_typical_registration(self):
        irr = IrrDatabase()
        obj = AutNumObject(asn=10, last_updated="20020601")
        for neighbor, pref in ((1, 90), (2, 100), (3, 110), (4, 110)):
            obj.imports.append(
                PolicyLine("import", peer_as=neighbor, pref=local_pref_to_rpsl_pref(pref))
            )
        irr.add(obj)
        results = ImportPolicyAnalyzer(small_graph()).analyze_irr(irr, min_neighbors=3)
        assert len(results) == 1
        assert results[0].asn == 10
        assert results[0].percent_typical == 100.0

    def test_atypical_registration_detected(self):
        irr = IrrDatabase()
        obj = AutNumObject(asn=10, last_updated="20020601")
        for neighbor, pref in ((1, 120), (2, 100), (3, 110), (4, 110)):
            obj.imports.append(
                PolicyLine("import", peer_as=neighbor, pref=local_pref_to_rpsl_pref(pref))
            )
        irr.add(obj)
        results = ImportPolicyAnalyzer(small_graph()).analyze_irr(irr, min_neighbors=3)
        assert results[0].percent_typical < 100.0

    def test_stale_objects_filtered_by_year(self):
        irr = IrrDatabase()
        obj = AutNumObject(asn=10, last_updated="20010601")
        for neighbor, pref in ((1, 90), (2, 100), (3, 110), (4, 110)):
            obj.imports.append(
                PolicyLine("import", peer_as=neighbor, pref=local_pref_to_rpsl_pref(pref))
            )
        irr.add(obj)
        analyzer = ImportPolicyAnalyzer(small_graph())
        assert analyzer.analyze_irr(irr, min_neighbors=3, updated_during="2002") == []
        assert analyzer.analyze_irr(irr, min_neighbors=3, updated_during=None)

    def test_min_neighbors_filter(self):
        irr = IrrDatabase()
        obj = AutNumObject(asn=10, last_updated="20020601")
        obj.imports.append(PolicyLine("import", peer_as=1, pref=910))
        obj.imports.append(PolicyLine("import", peer_as=3, pref=890))
        irr.add(obj)
        analyzer = ImportPolicyAnalyzer(small_graph())
        assert analyzer.analyze_irr(irr, min_neighbors=3) == []
        assert len(analyzer.analyze_irr(irr, min_neighbors=2)) == 1

    def test_min_neighbors_validation(self):
        with pytest.raises(InferenceError):
            ImportPolicyAnalyzer(small_graph()).analyze_irr(IrrDatabase(), min_neighbors=1)

    def test_dataset_irr_mostly_typical(self, dataset, graph):
        analyzer = ImportPolicyAnalyzer(graph)
        results = analyzer.analyze_irr(dataset.irr, min_neighbors=5)
        assert results
        average = sum(r.percent_typical for r in results) / len(results)
        assert average > 90.0
