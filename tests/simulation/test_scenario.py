"""Tests of the canned paper-figure scenarios (Figs. 1, 3, 5, 8)."""

from helpers import is_customer_of
from paper_scenarios import (
    figure1_scenario,
    figure3_scenario,
    figure8_multihomed_scenario,
    figure8_singlehomed_scenario,
)

from repro.bgp.route import NeighborKind
from repro.simulation.scenario import figure5_scenario


class TestFigure1:
    def test_every_as_reaches_every_prefix(self):
        scenario = figure1_scenario()
        result = scenario.run()
        prefix_count = len(scenario.internet.all_prefixes())
        for asn in scenario.observed_ases:
            assert len(result.table_of(asn)) == prefix_count

    def test_paths_are_valley_free(self):
        scenario = figure1_scenario()
        result = scenario.run()
        graph = scenario.internet.graph
        for asn in scenario.observed_ases:
            for route in result.table_of(asn).best_routes():
                if route.is_local:
                    continue
                assert graph.is_valley_free([asn] + list(route.as_path.deduplicate()))


class TestFigure3:
    def test_provider_d_sees_prefix_via_peer(self):
        scenario = figure3_scenario()
        result = scenario.run()
        best = result.table_of(scenario.focus_provider).best_route(scenario.focus_prefix)
        assert best is not None
        assert best.neighbor_kind is NeighborKind.PEER
        assert best.next_hop_as == 11

    def test_provider_b_receives_no_customer_route(self):
        # A announces only to C, so B never sees p from its customer A; B only
        # learns it back from its own provider D (which got it via the peer E).
        scenario = figure3_scenario()
        result = scenario.run()
        best = result.table_of(20).best_route(scenario.focus_prefix)
        assert best is not None
        assert best.neighbor_kind is NeighborKind.PROVIDER
        assert not any(
            route.neighbor_kind is NeighborKind.CUSTOMER
            for route in result.table_of(20).all_routes(scenario.focus_prefix)
        )

    def test_provider_c_sees_customer_route(self):
        scenario = figure3_scenario()
        result = scenario.run()
        best = result.table_of(30).best_route(scenario.focus_prefix)
        assert best is not None and best.neighbor_kind is NeighborKind.CUSTOMER

    def test_origin_is_in_provider_d_customer_cone(self):
        scenario = figure3_scenario()
        assert is_customer_of(scenario.internet.graph, 100, scenario.focus_provider)


class TestFigure5:
    def test_as1_reaches_customer_prefix_via_peer_3549(self):
        scenario = figure5_scenario()
        result = scenario.run()
        best = result.table_of(1).best_route(scenario.focus_prefix)
        assert best is not None
        assert best.neighbor_kind is NeighborKind.PEER
        assert best.next_hop_as == 3549
        assert list(best.as_path) == [3549, 13768, 6280]

    def test_as852_has_no_customer_route(self):
        scenario = figure5_scenario()
        result = scenario.run()
        best = result.table_of(852).best_route(scenario.focus_prefix)
        # AS852 learns the prefix only from its provider AS1 (downhill), so
        # it is a provider route, not a customer route.
        assert best is None or best.neighbor_kind is not NeighborKind.CUSTOMER


class TestFigure8:
    def test_multihomed_best_and_customer_paths_are_disjoint(self):
        scenario = figure8_multihomed_scenario()
        result = scenario.run()
        best = result.table_of(10).best_route(scenario.focus_prefix)
        assert best is not None
        assert best.neighbor_kind is NeighborKind.PEER
        best_path = set(best.as_path)
        customer_path = scenario.internet.graph.find_customer_path(10, 5)
        assert customer_path is not None
        # Disjoint apart from the destination AS.
        assert set(customer_path[1:-1]).isdisjoint(best_path - {5})

    def test_singlehomed_paths_share_the_last_common_as(self):
        scenario = figure8_singlehomed_scenario()
        result = scenario.run()
        best = result.table_of(10).best_route(scenario.focus_prefix)
        assert best is not None
        assert best.neighbor_kind is NeighborKind.PEER
        assert list(best.as_path) == [2, 1, 5]
        customer_path = scenario.internet.graph.find_customer_path(10, 5)
        assert customer_path == [10, 3, 1, 5]
        # The intermediate AS u1 (=1) is on both paths.
        assert 1 in set(best.as_path) and 1 in set(customer_path)

    def test_singlehomed_origin_prefix_also_curves(self):
        scenario = figure8_singlehomed_scenario()
        result = scenario.run()
        from repro.net.prefix import Prefix

        own_prefix = Prefix.parse("10.1.0.0/16")
        best = result.table_of(10).best_route(own_prefix)
        assert best is not None
        assert best.neighbor_kind is NeighborKind.PEER
