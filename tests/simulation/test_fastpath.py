"""Unit tests of the fast propagation core and the satellite bug fixes.

Covers, under *both* engines where behaviour must match, through ``run()``
and mostly with every AS observed:

* the ORIGIN-attribute regression in ``_same_route`` (a best-route change
  that differs only in ORIGIN must be re-announced),
* the message count and the truncated prefixes, including the
  budget-truncation path (the legacy ``run_prefix`` reports both per
  prefix),
* withdrawal cascades: an AS whose best route flips to a non-exportable one
  retracts its earlier announcements from providers and peers,
* the task signature: two prefixes of one origin with equal seed plans
  propagate once, unless a ``prefix_local_pref`` override names one,
* sinks (``TestSinks``): the fast engine drops an announcement to an
  unobserved AS without customers or siblings once it is counted; the
  hand-built graphs observe a few ASes so sinks exist, and a ``standard``
  run observing every AS (so none is a sink) is the differential check.
"""

import pytest

from repro.bgp.attributes import Origin
from repro.bgp.route import NeighborKind, Route, originate
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.session.cache import StageCache
from repro.session.scenarios import get_scenario
from repro.simulation.fastpath import FastPropagationEngine, compile_topology
from repro.simulation.fastpath.engine import _Core
from repro.simulation.policies import ASPolicy, PolicyAssignment
from repro.simulation.propagation import PrefixRun, PropagationEngine
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import AnnotatedASGraph
from repro.topology.hierarchy import classify_tiers

O, C, E, X, P = 10, 20, 30, 40, 50

PREFIX = Prefix.parse("10.10.0.0/16")
TWIN = Prefix.parse("10.20.0.0/16")


def _internet(graph: AnnotatedASGraph, originated: dict[ASN, list[Prefix]]) -> SyntheticInternet:
    return SyntheticInternet(
        graph=graph, tiers=classify_tiers(graph), originated=originated
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
    assignment = _default_policies(graph)
    # The atypical preference: routes from peer E beat customer routes.
    assignment.policies[X].neighbor_local_pref[E] = 120
    return internet, assignment


@pytest.fixture
def twin_setup(cascade_setup):
    """The cascade with O originating TWIN too, under the same export policy."""
    internet, assignment = cascade_setup
    return _internet(internet.graph, {O: [PREFIX, TWIN]}), assignment


def _counted_tasks(monkeypatch) -> list[Prefix]:
    """Record the prefix of every task the fast engine's core propagates."""
    calls: list[Prefix] = []
    run_task = _Core.run_task

    def counting(self, origin_idx, prefix, seed):
        calls.append(prefix)
        return run_task(self, origin_idx, prefix, seed)

    monkeypatch.setattr(_Core, "run_task", counting)
    return calls


def _export_calls(monkeypatch) -> list[int]:
    """Record the dense id of every AS the fast engine's core exports from."""
    calls: list[int] = []
    export = _Core._export

    def counting(self, asn_idx, state, append):
        calls.append(asn_idx)
        return export(self, asn_idx, state, append)

    monkeypatch.setattr(_Core, "_export", counting)
    return calls


def _both_engines(internet, assignment, observed=None, budget=500_000):
    """The fast engine's result, after requiring the legacy engine's RIB,
    message count and truncated list; ``observed`` defaults to every AS."""
    if observed is None:
        observed = sorted(internet.graph.ases())
    legacy, fast = (
        engine_cls(
            internet, assignment, observed_ases=observed, message_budget_per_prefix=budget
        ).run()
        for engine_cls in (PropagationEngine, FastPropagationEngine)
    )
    assert fast.rib == legacy.rib
    assert fast.message_count == legacy.message_count
    assert fast.truncated_prefixes == legacy.truncated_prefixes
    return fast


def _default_policies(graph: AnnotatedASGraph) -> PolicyAssignment:
    assignment = PolicyAssignment()
    for asn in graph.ases():
        assignment.policies[asn] = ASPolicy(asn=asn)
    return assignment


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
        _both_engines(*cascade_setup)


class TestTaskSignature:
    def test_equal_seed_plans_propagate_once(self, twin_setup, monkeypatch):
        internet, assignment = twin_setup
        calls = _counted_tasks(monkeypatch)
        fast = _both_engines(internet, assignment)
        assert calls == [PREFIX]
        # The one run's rows and messages count for both prefixes.
        single = FastPropagationEngine(
            _internet(internet.graph, {O: [PREFIX]}), assignment
        ).run()
        assert fast.message_count == 2 * single.message_count
        table = fast.table_of(X)
        assert [r.as_path for r in table.all_routes(TWIN)] == [
            r.as_path for r in table.all_routes(PREFIX)
        ]

    def test_prefix_override_splits_the_signature(self, twin_setup, monkeypatch):
        internet, assignment = twin_setup
        # X ranks every route to TWIN at 80: the customer route C heard
        # first stays best, where PREFIX flips to the peer route at 120.
        assignment.policies[X].prefix_local_pref[TWIN] = 80
        calls = _counted_tasks(monkeypatch)
        fast = _both_engines(internet, assignment)
        assert calls == [PREFIX, TWIN]
        table = fast.table_of(X)
        assert table.best_route(PREFIX).local_pref == 120
        assert table.best_route(TWIN).local_pref == 80
        assert table.best_route(TWIN).neighbor_kind is NeighborKind.CUSTOMER
        # ... which X, unlike the peer route, exports to its provider.
        assert [r.next_hop_as for r in fast.table_of(P).all_routes(TWIN)] == [X]
        assert fast.table_of(P).all_routes(PREFIX) == []


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

    def test_sinks_are_unobserved_ases_without_customers_or_siblings(self):
        """Y1 is a plain stub, Y2 an observed stub (the two also peer), and
        T and U have no customers but are each other's sibling::

                P
               / \\
              X   T === U      (=== sibling edge, --- peer edge)
             / \\
            Y1--Y2
        """
        Y1, Y2, T, U = 61, 62, 70, 71
        graph = AnnotatedASGraph.from_edges(
            provider_customer=[(P, X), (X, Y1), (X, Y2), (P, T)],
            peer_peer=[(Y1, Y2)],
            sibling=[(T, U)],
        )
        internet = _internet(graph, {Y1: [PREFIX]})
        topology = compile_topology(internet, _default_policies(graph), [P, Y2])
        sinks = {topology.asns[i] for i, sink in enumerate(topology.sink) if sink}
        assert sinks == {Y1}


# The fan-out graph: A and B peer under P, each has three stub customers,
# and O is multihomed under both.
A, B = 200, 300
A_STUBS, B_STUBS = (210, 220, 230), (310, 320, 330)


@pytest.fixture
def fanout_setup():
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[(P, A), (P, B), (A, O), (B, O)]
        + [(A, stub) for stub in A_STUBS]
        + [(B, stub) for stub in B_STUBS],
        peer_peer=[(A, B)],
    )
    return _internet(graph, {O: [PREFIX]}), _default_policies(graph)


@pytest.fixture(scope="module")
def standard_inputs():
    """``standard``'s Internet, policies and planned observed ASes."""
    study = get_scenario("standard").study(cache=StageCache())
    plan = study.policies()
    return study.topology(), plan.assignment, plan.observed_ases


def _tables(result, asn: ASN) -> list[tuple]:
    """Every (prefix, candidates, best) of ``asn``'s table, in prefix order."""
    table = result.table_of(asn)
    return [
        (prefix, table.all_routes(prefix), table.best_route(prefix))
        for prefix in table.prefixes()
    ]


class TestSinks:
    """An unobserved AS with neither customers nor siblings never relays a
    route and is never read, so the fast engine counts a message to it and
    stops there."""

    def test_sibling_relay_is_not_a_sink(self):
        """P provides Q and T, Q provides S, and S and T are siblings; S
        originates PREFIX and only P is observed.  T has no customer, but
        it learns S's route from a sibling and re-exports it to P."""
        Q, S, T = 110, 120, 130
        graph = AnnotatedASGraph.from_edges(
            provider_customer=[(P, T), (P, Q), (Q, S)], sibling=[(S, T)]
        )
        internet = _internet(graph, {S: [PREFIX]})
        fast = _both_engines(internet, _default_policies(graph), [P])
        assert [r.next_hop_as for r in fast.table_of(P).all_routes(PREFIX)] == [Q, T]
        assert fast.message_count == 5

    def test_every_budget_cuts_where_the_legacy_engine_does(self, fanout_setup):
        internet, assignment = fanout_setup
        full = _both_engines(internet, assignment, [P]).message_count
        assert full == 13
        truncated = 0
        for budget in range(1, full + 1):
            fast = _both_engines(internet, assignment, [P], budget)
            truncated += bool(fast.truncated_prefixes)
        assert truncated == full - 1

    def test_an_observed_stub_is_not_a_sink(self, fanout_setup):
        internet, assignment = fanout_setup
        stub = A_STUBS[0]
        fast = _both_engines(internet, assignment, [P, stub])
        assert [r.next_hop_as for r in fast.table_of(stub).all_routes(PREFIX)] == [A]

    def test_observing_every_as_changes_no_observed_table(self, standard_inputs):
        """The differential check: with every AS observed there is no sink,
        so the engine decides every message, as before sinks were skipped."""
        internet, assignment, observed = standard_inputs
        planned = FastPropagationEngine(
            internet, assignment, observed_ases=observed
        )
        everyone = FastPropagationEngine(
            internet, assignment, observed_ases=sorted(internet.graph.ases())
        )
        assert any(planned.compiled.sink)
        assert not any(everyone.compiled.sink)
        sparse, full = planned.run(), everyone.run()
        assert sparse.message_count == full.message_count
        assert sparse.truncated_prefixes == full.truncated_prefixes
        for asn in observed:
            assert _tables(sparse, asn) == _tables(full, asn)

    def test_no_sink_ever_exports(self, standard_inputs, monkeypatch):
        internet, assignment, observed = standard_inputs
        calls = _export_calls(monkeypatch)
        engine = FastPropagationEngine(internet, assignment, observed_ases=observed)
        engine.run()
        sink = engine.compiled.sink
        assert calls
        assert not [asn_idx for asn_idx in calls if sink[asn_idx]]
