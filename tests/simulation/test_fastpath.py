"""Unit tests of the fast propagation core and the satellite bug fixes.

Covers, under *both* engines where behaviour must match, through ``run()``
with every AS observed:

* the ORIGIN-attribute regression in ``_same_route`` (a best-route change
  that differs only in ORIGIN must be re-announced),
* the message count and the truncated prefixes, including the
  budget-truncation path (the legacy ``run_prefix`` reports both per
  prefix),
* withdrawal cascades: an AS whose best route flips to a non-exportable one
  retracts its earlier announcements from providers and peers.
"""

import pytest

from repro.bgp.attributes import Origin
from repro.bgp.route import NeighborKind, Route, originate
from repro.net.allocator import AddressAllocator
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.fastpath import FastPropagationEngine, compile_topology
from repro.simulation.policies import ASPolicy, PolicyAssignment
from repro.simulation.propagation import PrefixRun, PropagationEngine
from repro.topology.generator import GeneratorParameters, SyntheticInternet
from repro.topology.graph import AnnotatedASGraph
from repro.topology.hierarchy import classify_tiers

O, C, E, X, P = 10, 20, 30, 40, 50

PREFIX = Prefix.parse("10.10.0.0/16")


def _internet(graph: AnnotatedASGraph, originated: dict[ASN, list[Prefix]]) -> SyntheticInternet:
    return SyntheticInternet(
        parameters=GeneratorParameters(),
        graph=graph,
        tiers=classify_tiers(graph),
        allocator=AddressAllocator(),
        originated=originated,
    )


@pytest.fixture
def cascade_setup():
    """AS X prefers its peer E over its customer C (atypical LOCAL_PREF).

    ::

            P
            |           (P provides X; X peers with E; C is X's customer;
            X --- E      O is multihomed under C and E and originates PREFIX)
            |     |
            C     |
             \\   |
               O-+
    """
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[(P, X), (X, C), (C, O), (E, O)],
        peer_peer=[(X, E)],
    )
    internet = _internet(graph, {O: [PREFIX]})
    assignment = PolicyAssignment()
    for asn in graph.ases():
        assignment.policies[asn] = ASPolicy(asn=asn)
    # The atypical preference: routes from peer E beat customer routes.
    assignment.policies[X].neighbor_local_pref[E] = 120
    return internet, assignment


def _senders(result, asn: ASN) -> set[ASN]:
    """The ASes ``asn`` holds a candidate route for PREFIX from."""
    return {route.next_hop_as for route in result.table_of(asn).all_routes(PREFIX)}


class TestWithdrawalCascade:
    @pytest.mark.parametrize("engine_cls", [PropagationEngine, FastPropagationEngine])
    def test_flip_to_peer_route_retracts_upstream_announcements(
        self, cascade_setup, engine_cls
    ):
        internet, assignment = cascade_setup
        result = engine_cls(
            internet, assignment, observed_ases=sorted(internet.graph.ases())
        ).run()
        # X first learns the route via its customer C (exportable to
        # everyone), then via peer E with LOCAL_PREF 120: the best flips to a
        # peer route, which must not be exported to provider P or peer E.
        best = result.table_of(X).best_route(PREFIX)
        assert best is not None and best.neighbor_kind is NeighborKind.PEER
        assert best.local_pref == 120
        # The cascade: P and E held X's earlier announcement and must have
        # processed the retraction.
        assert X not in _senders(result, P)
        assert X not in _senders(result, E)
        # C keeps X's announcement (a customer may still hear the route).
        assert X in _senders(result, C)

    @pytest.mark.parametrize("engine_cls", [PropagationEngine, FastPropagationEngine])
    def test_fully_withdrawn_prefix_leaves_no_table_entry(
        self, cascade_setup, engine_cls
    ):
        """An observed AS whose candidates were all retracted records no
        entry at all — not an empty one (regression: the fast engine used to
        load an empty RibEntry where the legacy engine recorded nothing)."""
        internet, assignment = cascade_setup
        result = engine_cls(internet, assignment, observed_ases=[P]).run()
        table = result.table_of(P)
        assert len(table) == 0
        assert list(table.prefixes()) == []

    def test_both_engines_agree_on_the_cascade(self, cascade_setup):
        internet, assignment = cascade_setup
        observed = sorted(internet.graph.ases())
        legacy = PropagationEngine(internet, assignment, observed_ases=observed).run()
        fast = FastPropagationEngine(internet, assignment, observed_ases=observed).run()
        assert fast.rib == legacy.rib
        assert fast.message_count == legacy.message_count
        assert fast.truncated_prefixes == legacy.truncated_prefixes


class TestSameRouteOriginFix:
    def test_routes_differing_only_in_origin_are_not_the_same(self):
        base = originate(PREFIX, O).replace(origin=Origin.IGP)
        shifted = base.replace(origin=Origin.EGP)
        assert base.export_signature != shifted.export_signature
        assert not PropagationEngine._same_route(base, shifted)

    def test_identical_routes_are_the_same(self):
        base = originate(PREFIX, O)
        assert PropagationEngine._same_route(base, base.replace())
        assert not PropagationEngine._same_route(base, None)

    def test_export_signature_covers_the_wire_attributes(self):
        route = Route(prefix=PREFIX, as_path=ASPath((C, O)), local_pref=90)
        as_path, communities, local_pref, med, origin = route.export_signature
        assert as_path == route.as_path
        assert communities == route.communities
        assert (local_pref, med, origin) == (90, route.med, route.origin)


class TestPrefixRun:
    # Only the legacy engine propagates one prefix on request; the fast
    # engine reports the same numbers through run() (the tests below).
    @pytest.mark.parametrize("engine_cls", [PropagationEngine])
    def test_run_prefix_reports_messages_and_truncation(self, cascade_setup, engine_cls):
        internet, assignment = cascade_setup
        engine = engine_cls(internet, assignment, observed_ases=[P])
        run = engine.run_prefix(PREFIX, O)
        assert isinstance(run, PrefixRun)
        assert run.message_count > 0
        assert run.truncated is False

    @pytest.mark.parametrize("engine_cls", [PropagationEngine])
    def test_run_prefix_truncates_at_the_message_budget(self, cascade_setup, engine_cls):
        internet, assignment = cascade_setup
        budget = 3
        engine = engine_cls(
            internet, assignment, observed_ases=[P], message_budget_per_prefix=budget
        )
        run = engine.run_prefix(PREFIX, O)
        assert run.truncated is True
        # The message that trips the budget is counted but not processed.
        assert run.message_count == budget + 1

    @pytest.mark.parametrize("engine_cls", [PropagationEngine, FastPropagationEngine])
    def test_run_records_truncated_prefixes(self, cascade_setup, engine_cls):
        internet, assignment = cascade_setup
        budget = 3
        engine = engine_cls(
            internet, assignment, observed_ases=[P], message_budget_per_prefix=budget
        )
        result = engine.run()
        assert result.truncated_prefixes == [PREFIX]
        # The message that trips the budget is counted but not processed.
        assert result.message_count == budget + 1


class TestCompiledTopology:
    def test_dense_ids_follow_asn_order(self, cascade_setup):
        internet, assignment = cascade_setup
        topology = compile_topology(internet, assignment)
        assert topology.asns == tuple(sorted(internet.graph.ases()))
        assert [topology.asns[i] for i in topology.observed] == sorted(internet.tier1)
        assert topology.as_count == len(internet.graph.ases())

    def test_seed_plans_cover_every_originated_prefix(self, cascade_setup):
        internet, assignment = cascade_setup
        topology = compile_topology(internet, assignment)
        assert topology.origin_tasks == [(topology.index_of[O], PREFIX)]
        seed = topology.seeds[(topology.index_of[O], PREFIX)]
        announced = {topology.asns[i] for i in seed.announced}
        assert announced == {C, E}
