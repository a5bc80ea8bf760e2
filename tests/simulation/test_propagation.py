"""Tests of the propagation engine on generated Internets."""

import pytest
from helpers import is_customer_of, stub_ases

from repro.bgp.route import NeighborKind
from repro.exceptions import SimulationError
from repro.simulation.collector import RouteViewsCollector
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.simulation.propagation import PropagationEngine
from repro.topology.generator import GeneratorParameters, InternetGenerator


@pytest.fixture(scope="module")
def tiny_internet():
    return InternetGenerator(
        GeneratorParameters(seed=3, tier1_count=4, tier2_count=8, tier3_count=12, stub_count=60)
    ).generate()


@pytest.fixture(scope="module")
def plain_assignment(tiny_internet):
    """No selective announcement, no atypical policies: the baseline Internet."""
    parameters = PolicyParameters(
        seed=1,
        atypical_scheme_probability=0.0,
        atypical_neighbor_probability=0.0,
        prefix_based_fraction=0.0,
        selective_announcement_probability=0.0,
        transit_selective_probability=0.0,
        peer_withhold_probability=0.0,
    )
    return PolicyGenerator(parameters).generate(tiny_internet)


@pytest.fixture(scope="module")
def plain_result(tiny_internet, plain_assignment):
    observed = tiny_internet.tier1 + stub_ases(tiny_internet)[:3]
    return PropagationEngine(tiny_internet, plain_assignment, observed_ases=observed).run()


@pytest.fixture(scope="module")
def policied_assignment(tiny_internet):
    return PolicyGenerator(PolicyParameters(seed=9)).generate(tiny_internet)


@pytest.fixture(scope="module")
def policied_result(tiny_internet, policied_assignment):
    return PropagationEngine(
        tiny_internet, policied_assignment, observed_ases=tiny_internet.tier1
    ).run()


class TestBaselinePropagation:
    def test_tier1_sees_every_prefix(self, tiny_internet, plain_result):
        all_prefixes = set(tiny_internet.all_prefixes())
        for tier1 in tiny_internet.tier1:
            table = plain_result.table_of(tier1)
            missing = all_prefixes - set(table.prefixes())
            assert not missing, f"AS{tier1} is missing {len(missing)} prefixes"

    def test_stub_sees_every_prefix(self, tiny_internet, plain_result):
        stub = stub_ases(tiny_internet)[0]
        table = plain_result.table_of(stub)
        assert set(tiny_internet.all_prefixes()) <= set(table.prefixes())

    def test_observed_tables_only(self, tiny_internet, plain_result):
        unobserved = stub_ases(tiny_internet)[-1]
        with pytest.raises(SimulationError):
            plain_result.table_of(unobserved)

    def test_best_paths_are_valley_free(self, tiny_internet, plain_result):
        graph = tiny_internet.graph
        for asn in plain_result.observed_ases:
            for route in plain_result.table_of(asn).best_routes():
                if route.is_local:
                    continue
                path = [asn] + list(route.as_path.deduplicate())
                assert graph.is_valley_free(path), f"valley in {path} at AS{asn}"

    def test_paths_are_loop_free(self, plain_result):
        for asn in plain_result.observed_ases:
            for route in plain_result.table_of(asn).best_routes():
                asns = list(route.as_path.deduplicate())
                assert len(asns) == len(set(asns))
                if not route.is_local:
                    assert asn not in asns

    def test_route_origin_matches_ground_truth(self, tiny_internet, plain_result):
        for tier1 in tiny_internet.tier1:
            for route in plain_result.table_of(tier1).best_routes():
                if route.is_local:
                    continue
                assert route.prefix in tiny_internet.prefixes_of(route.origin_as)

    def test_without_selective_announcement_customers_reached_via_customers(
        self, tiny_internet, plain_result
    ):
        """With no selective announcement, a provider reaches every prefix
        originated inside its customer cone via a customer route."""
        graph = tiny_internet.graph
        for tier1 in tiny_internet.tier1:
            table = plain_result.table_of(tier1)
            cone = graph.customer_cone(tier1)
            for origin in cone:
                for prefix in tiny_internet.prefixes_of(origin):
                    best = table.best_route(prefix)
                    assert best is not None
                    assert best.neighbor_kind is NeighborKind.CUSTOMER, (
                        f"AS{tier1} reaches {prefix} (origin AS{origin}) via "
                        f"{best.neighbor_kind}"
                    )

    def test_typical_local_pref_assignment(self, plain_result):
        for asn in plain_result.observed_ases:
            for entry in plain_result.table_of(asn).entries():
                for route in entry.routes:
                    if route.is_local:
                        continue
                    if route.neighbor_kind is NeighborKind.CUSTOMER:
                        assert route.local_pref == 110
                    elif route.neighbor_kind is NeighborKind.PEER:
                        assert route.local_pref == 100
                    elif route.neighbor_kind is NeighborKind.PROVIDER:
                        assert route.local_pref == 90

    def test_message_count_reported(self, plain_result):
        assert plain_result.message_count > 0


class TestPoliciedPropagation:
    def test_selective_announcement_creates_peer_or_missing_routes(
        self, tiny_internet, policied_assignment, policied_result
    ):
        """At least one Tier-1 reaches some cone-internal prefix via a peer
        (or not at all) once selective announcement is enabled."""
        graph = tiny_internet.graph
        curved = 0
        for tier1 in tiny_internet.tier1:
            table = policied_result.table_of(tier1)
            for origin, prefixes in policied_assignment.selective_origins.items():
                if not is_customer_of(graph, origin, tier1):
                    continue
                for prefix in prefixes:
                    best = table.best_route(prefix)
                    if best is None or best.neighbor_kind is not NeighborKind.CUSTOMER:
                        curved += 1
        assert curved > 0

    def test_scoped_routes_do_not_leak_past_their_provider(
        self, tiny_internet, policied_assignment, policied_result
    ):
        """A prefix announced only with the scoped community never shows up
        beyond the chosen providers' own tables."""
        graph = tiny_internet.graph
        for origin, prefixes in policied_assignment.scoped_origins.items():
            policy = policied_assignment.policies[origin]
            for prefix in prefixes:
                scoped_targets = policy.scoped_providers_for_prefix(prefix)
                plain_targets = policy.providers_for_prefix(
                    prefix, graph.providers_of(origin)
                )
                if plain_targets - scoped_targets:
                    continue  # also announced plainly somewhere; may spread
                for tier1 in tiny_internet.tier1:
                    if tier1 in scoped_targets:
                        continue
                    best = policied_result.table_of(tier1).best_route(prefix)
                    assert best is None, (
                        f"scoped prefix {prefix} leaked to AS{tier1} via {best}"
                    )

    def test_community_tagging_visible_at_tier1(
        self, tiny_internet, policied_assignment, policied_result
    ):
        tagging_tier1 = [
            asn for asn in tiny_internet.tier1 if asn in policied_assignment.tagging_ases
        ]
        if not tagging_tier1:
            pytest.skip("no Tier-1 AS tags communities under this seed")
        from repro.simulation.policies import SCOPED_ANNOUNCEMENT_VALUE

        asn = tagging_tier1[0]
        plan = policied_assignment.policies[asn].community_plan
        tagged = 0
        for route in policied_result.table_of(asn).best_routes():
            if route.is_local:
                continue
            # Communities carrying this AS's number are either relationship
            # tags (decodable by the plan) or a customer's scoped-announcement
            # marker addressed to this AS.
            own = {
                community
                for community in route.communities.from_asn(asn)
                if community.value != SCOPED_ANNOUNCEMENT_VALUE
            }
            if own:
                tagged += 1
                relationships = {plan.relationship_of(c) for c in own}
                assert None not in relationships
        assert tagged > 0


class TestCollector:
    def test_collector_table_covers_vantages(self, tiny_internet, plain_result):
        collector = RouteViewsCollector(vantage_ases=tiny_internet.tier1)
        table = collector.collect(plain_result)
        assert table.vantages() == tiny_internet.tier1
        assert len(table) >= len(tiny_internet.all_prefixes())

    def test_collector_paths_start_with_vantage(self, tiny_internet, plain_result):
        collector = RouteViewsCollector(vantage_ases=tiny_internet.tier1[:2])
        table = collector.collect(plain_result)
        for entry in table.entries:
            assert entry.as_path.next_hop_as == entry.vantage

    def test_collector_requires_vantages(self):
        with pytest.raises(SimulationError):
            RouteViewsCollector(vantage_ases=[])
