"""Property-based tests of the propagation engine over random tiny Internets."""

from helpers import all_selectively_announced, is_customer_of
from hypothesis import given, settings
from strategies import seeds, tiny_internet

from repro.bgp.route import NeighborKind
from repro.core.export_policy import ExportPolicyAnalyzer
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.simulation.propagation import PropagationEngine


@settings(max_examples=8, deadline=None)
@given(seed=seeds())
def test_baseline_propagation_invariants(seed):
    """Without selective policies: full reachability, valley-free, loop-free."""
    internet = tiny_internet(seed)
    assignment = PolicyGenerator(
        PolicyParameters(
            seed=seed,
            selective_announcement_probability=0.0,
            transit_selective_probability=0.0,
            peer_withhold_probability=0.0,
            atypical_scheme_probability=0.0,
            atypical_neighbor_probability=0.0,
            prefix_based_fraction=0.0,
        )
    ).generate(internet)
    result = PropagationEngine(internet, assignment, observed_ases=internet.tier1).run()
    assert result.truncated_prefixes == []
    graph = internet.graph
    all_prefixes = set(internet.all_prefixes())
    for tier1 in internet.tier1:
        table = result.table_of(tier1)
        assert set(table.prefixes()) == all_prefixes
        for route in table.best_routes():
            if route.is_local:
                continue
            asns = list(route.as_path.deduplicate())
            assert len(asns) == len(set(asns))
            assert graph.is_valley_free([tier1] + asns)
            # Prefixes in the customer cone must arrive over customer routes.
            if route.origin_as in graph.customer_cone(tier1):
                assert route.neighbor_kind is NeighborKind.CUSTOMER


@settings(max_examples=8, deadline=None)
@given(seed=seeds())
def test_policied_propagation_invariants(seed):
    """With generated policies: still valley-free, convergent, SA prefixes trace
    back to configured selective/scoped announcements or selective transits."""
    internet = tiny_internet(seed)
    assignment = PolicyGenerator(PolicyParameters(seed=seed)).generate(internet)
    result = PropagationEngine(internet, assignment, observed_ases=internet.tier1).run()
    assert result.truncated_prefixes == []
    graph = internet.graph
    analyzer = ExportPolicyAnalyzer(graph)
    configured = all_selectively_announced(assignment)
    for tier1 in internet.tier1:
        table = result.table_of(tier1)
        for route in table.best_routes():
            if route.is_local:
                continue
            assert graph.is_valley_free([tier1] + list(route.as_path.deduplicate()))
        report = analyzer.find_sa_prefixes(tier1, table)
        for item in report.sa_prefixes:
            explained = item.prefix in configured or any(
                transit == item.origin_as or is_customer_of(graph, item.origin_as, transit)
                for transit in assignment.selective_transits
            )
            assert explained, f"unexplained SA prefix {item.prefix} at AS{tier1}"


@settings(max_examples=6, deadline=None)
@given(seed=seeds())
def test_propagation_is_deterministic(seed):
    """Two runs with identical inputs produce identical observed tables."""
    internet = tiny_internet(seed)
    assignment = PolicyGenerator(PolicyParameters(seed=seed)).generate(internet)
    first = PropagationEngine(internet, assignment, observed_ases=internet.tier1[:1]).run()
    second = PropagationEngine(internet, assignment, observed_ases=internet.tier1[:1]).run()
    tier1 = internet.tier1[0]
    first_table = first.table_of(tier1)
    second_table = second.table_of(tier1)
    assert len(first_table) == len(second_table)
    for entry in first_table.entries():
        other_best = second_table.best_route(entry.prefix)
        if entry.best is None:
            assert other_best is None
            continue
        assert other_best is not None
        assert other_best.as_path == entry.best.as_path
        assert other_best.local_pref == entry.best.local_pref
