"""Edge cases of the core analyzers the equivalence suite relies on.

Empty and degenerate observed artifacts must behave identically in the
legacy analyzers and in the analysis layer's fast paths; these tests pin
the legacy behaviour down with handcrafted fixtures.
"""

import pytest

from repro.analysis.persistence import persistence_series, uptime_distribution
from repro.bgp.rib import LocRib
from repro.bgp.route import NeighborKind, Route, originate
from repro.core.atoms import PolicyAtomAnalyzer
from repro.core.community import CommunityAnalyzer
from repro.core.export_policy import ExportPolicyAnalyzer
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.collector import CollectorEntry, CollectorTable, LookingGlass
from repro.simulation.propagation import SimulationResult
from repro.simulation.rib import RibColumns
from repro.simulation.timeline import Snapshot
from repro.topology.graph import AnnotatedASGraph

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")
P3 = Prefix.parse("10.0.2.0/24")


class TestAtomsEdgeCases:
    def test_empty_collector_table_has_no_atoms(self):
        analyzer = PolicyAtomAnalyzer()
        atoms = analyzer.compute_atoms(CollectorTable())
        assert atoms == []
        stats = analyzer.statistics(atoms)
        assert stats.atom_count == 0
        assert stats.prefix_count == 0
        assert stats.average_atom_size == 0.0
        assert stats.largest_atom_size == 0

    def test_single_vantage_atoms_group_by_path(self):
        # One vantage: prefixes sharing the one observed path share an atom.
        table = CollectorTable(
            entries=[
                CollectorEntry(vantage=10, prefix=P1, as_path=ASPath([10, 20, 30])),
                CollectorEntry(vantage=10, prefix=P2, as_path=ASPath([10, 20, 30])),
                CollectorEntry(vantage=10, prefix=P3, as_path=ASPath([10, 40])),
            ]
        )
        atoms = PolicyAtomAnalyzer().compute_atoms(table)
        assert [atom.prefixes for atom in atoms] == [[P1, P2], [P3]]
        assert atoms[0].signature == ((10, (10, 20, 30)),)
        assert atoms[0].origin_ases == {30}
        assert atoms[1].origin_ases == {40}

    def test_single_prefix_atoms_counted(self):
        table = CollectorTable(
            entries=[
                CollectorEntry(vantage=10, prefix=P1, as_path=ASPath([10, 30])),
                CollectorEntry(vantage=10, prefix=P2, as_path=ASPath([10, 40])),
            ]
        )
        analyzer = PolicyAtomAnalyzer()
        stats = analyzer.statistics(analyzer.compute_atoms(table))
        assert stats.single_prefix_atoms == 2
        assert stats.single_origin_atoms == 2


class TestExportPolicyNoCustomers:
    @pytest.fixture()
    def graph(self):
        graph = AnnotatedASGraph()
        # AS1 is AS2's provider; AS2 is a stub with no customers at all.
        graph.add_provider_customer(1, 2)
        graph.add_provider_customer(1, 3)
        return graph

    @pytest.fixture()
    def stub_table(self):
        table = LocRib(owner=2)
        table.add_route(originate(P1, 2))
        table.add_route(
            Route(
                prefix=P2,
                as_path=ASPath([1, 3]),
                local_pref=90,
                neighbor_kind=NeighborKind.PROVIDER,
            )
        )
        return table

    def test_stub_provider_has_empty_sa_report(self, graph, stub_table):
        report = ExportPolicyAnalyzer(graph).find_sa_prefixes(2, stub_table)
        assert report.customer_prefix_count == 0
        assert report.sa_prefixes == []
        assert report.customer_route_prefix_count == 0
        assert report.percent_sa == 0.0

    def test_snapshot_core_matches_legacy_on_stub(self, graph, stub_table):
        legacy = ExportPolicyAnalyzer(graph).find_sa_prefixes(2, stub_table)
        result = SimulationResult(rib=RibColumns.from_tables({2: stub_table}))
        snapshots = [Snapshot(index=0, result=result)]
        series = persistence_series(snapshots, 2, graph)
        assert series.as_rows() == [(0, len(stub_table), legacy.sa_prefix_count)]
        distribution = uptime_distribution(snapshots, 2, graph)
        assert distribution.uptime == {P1: 1, P2: 1}
        assert distribution.ever_sa_prefixes() == legacy.sa_prefix_set() == set()

    def test_known_prefixes_of_noncustomers_do_not_count_missing(self, graph, stub_table):
        report = ExportPolicyAnalyzer(graph).find_sa_prefixes(
            2, stub_table, known_customer_prefixes={3: [P3]}
        )
        assert report.missing_prefix_count == 0


class TestCommunityNoCommunities:
    @pytest.fixture()
    def glass(self):
        table = LocRib(owner=5)
        # Routes with no community tags at all (the next hop is the first
        # AS on the path; the owner is not prepended inside its own table).
        table.add_route(Route(prefix=P1, as_path=ASPath([6, 7]), local_pref=100))
        table.add_route(Route(prefix=P2, as_path=ASPath([8]), local_pref=90))
        return LookingGlass(5, table)

    def test_signatures_have_no_dominant_community(self, glass):
        signatures = CommunityAnalyzer().neighbor_signatures(glass)
        assert set(signatures) == {6, 8}
        assert all(s.community is None for s in signatures.values())

    def test_semantics_stay_empty_without_communities(self, glass):
        semantics = CommunityAnalyzer().infer_semantics(glass)
        assert semantics.value_to_relationship == {}
        assert semantics.anchors == {}
        assert semantics.relationship_for_neighbor(6) is None

    def test_empty_glass_yields_empty_semantics(self):
        glass = LookingGlass(5, LocRib(owner=5))
        semantics = CommunityAnalyzer().infer_semantics(glass)
        assert semantics.signatures == {}
        assert semantics.value_to_relationship == {}
