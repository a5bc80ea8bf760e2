"""The columnar RIB: lowering rules, views and their memoisation."""

import dataclasses

import pytest

from repro.bgp.attributes import CommunitySet, Origin, WellKnownCommunity
from repro.bgp.rib import LocRib
from repro.bgp.route import NeighborKind, Route, RouteSource, originate
from repro.exceptions import SimulationError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.session.cache import StageCache
from repro.session.scenarios import get_scenario
from repro.simulation.collector import LookingGlass
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.propagation import PropagationEngine
from repro.simulation.rib import KIND_LOCAL, REL_PEER, RibColumns, RibWriter
from repro.storage.codecs import codec_for

P1 = Prefix.parse("10.0.0.0/16")
P2 = Prefix.parse("10.0.0.0/8")


@pytest.fixture(scope="module")
def study():
    return get_scenario("small").study(cache=StageCache())


@pytest.fixture(scope="module")
def result(study):
    return study.propagation()


def _learned(**changes) -> Route:
    route = Route(
        prefix=P1,
        as_path=ASPath([30, 40]),
        local_pref=90,
        neighbor_kind=NeighborKind.PEER,
    )
    return route.replace(**changes)


class TestLowering:
    def test_default_routes_lower_and_view_back(self):
        table = LocRib(owner=20)
        local = originate(P2, 20)
        learned = _learned()
        table.add_route(local)
        table.add_route(learned)
        rib = RibColumns.from_tables({20: table})
        assert rib.owners == (20,)
        # Entries follow prefix order (P2 sorts before P1), whatever the
        # insertion order.
        assert [rib.prefixes[rib.entry_prefix[e]] for e in rib.entries(20)] == [P2, P1]
        assert list(rib.cand_kind) == [KIND_LOCAL, REL_PEER]
        assert list(rib.cand_learned_from) == [20, 30]
        view = rib.table(20)
        assert view.all_routes(P2) == [local]
        assert view.all_routes(P1) == [learned]
        assert view.best_route(P1) is view.all_routes(P1)[0]

    @pytest.mark.parametrize(
        "changes",
        [
            {"origin": Origin.INCOMPLETE},
            {"med": 5},
            {"igp_metric": 3},
            {"router_id": 7},
        ],
        ids=["origin", "med", "igp-metric", "router-id"],
    )
    def test_non_default_attribute_raises(self, changes):
        table = LocRib(owner=20)
        table.add_route(_learned(**changes))
        with pytest.raises(SimulationError, match="not the default"):
            RibColumns.from_tables({20: table})

    @pytest.mark.parametrize(
        "changes",
        [
            {"communities": CommunitySet(well_known=[WellKnownCommunity.NO_EXPORT])},
            {"source": RouteSource.IBGP},
            {"neighbor_kind": NeighborKind.UNKNOWN},
        ],
        ids=["well-known-community", "ibgp", "unclassified-neighbor"],
    )
    def test_unrepresentable_route_raises(self, changes):
        table = LocRib(owner=20)
        table.add_route(_learned(**changes))
        with pytest.raises(SimulationError, match="cannot store"):
            RibColumns.from_tables({20: table})

    def test_every_route_field_is_stored_or_refused(self):
        # A field added to Route must be taught to the lowering: stored in a
        # column, or refused when not at its default.  The CODEC lint rules
        # guard the codec module, not this one.
        stored = {"prefix", "as_path", "local_pref", "communities", "learned_from"}
        refused_unless_default = {"origin", "med", "igp_metric", "router_id"}
        classified = {"source", "neighbor_kind"}
        assert {f.name for f in dataclasses.fields(Route)} == (
            stored | refused_unless_default | classified
        )

    def test_second_entry_for_a_prefix_raises(self):
        writer = RibWriter([20], lambda key: key, lambda key: ())
        writer.add(0, P1, [((30,), None, 100, REL_PEER, 30)], 0)
        writer.add(0, P1, [((40,), None, 100, REL_PEER, 40)], 0)
        with pytest.raises(SimulationError, match="more than one origin"):
            writer.finish()

    def test_lowering_the_views_gives_the_same_columns(self, result):
        tables = {asn: result.table_of(asn) for asn in result.observed_ases}
        lowered = RibColumns.from_tables(tables)
        # A set's pairs may come back in another order (the views' sets
        # iterate in their own order); everything else is the same column.
        assert [frozenset(pairs) for pairs in lowered.communities] == [
            frozenset(pairs) for pairs in result.rib.communities
        ]
        lowered.communities = result.rib.communities
        assert lowered == result.rib


class TestFastEngineWritesColumns:
    def test_run_builds_no_route_or_locrib(self, monkeypatch):
        study = get_scenario("small").study(cache=StageCache())
        plan = study.policies()
        engine = FastPropagationEngine(
            study.topology(), plan.assignment, observed_ases=plan.observed_ases
        )
        built = []
        monkeypatch.setattr(Route, "__post_init__", lambda route: built.append(route))
        table_init = LocRib.__init__
        monkeypatch.setattr(
            LocRib, "__init__", lambda rib, *a, **k: built.append(rib) or table_init(rib, *a, **k)
        )
        result = engine.run()
        assert built == []
        assert result.rib.owners == tuple(plan.observed_ases)
        result.table_of(result.observed_ases[0])
        assert built  # the view is where objects appear


class TestPathTable:
    # The measurement index interns collector paths per (vantage, path id),
    # which names one collector path only while each tuple has one id.
    @pytest.mark.parametrize("source", ["fast", "legacy", "decoded"])
    def test_paths_hold_no_duplicate_tuple(self, source):
        study = get_scenario("small").study(cache=StageCache())
        if source == "legacy":
            plan = study.policies()
            rib = PropagationEngine(
                study.topology(), plan.assignment, observed_ases=plan.observed_ases
            ).run().rib
        elif source == "decoded":
            codec = codec_for("propagation")
            rib = codec.decode(codec.encode(study.propagation())).rib
        else:
            rib = study.propagation().rib
        assert rib.paths
        assert len(set(rib.paths)) == len(rib.paths)


class TestViews:
    def test_table_of_memoises_one_view(self, result):
        asn = result.observed_ases[0]
        view = result.table_of(asn)
        assert result.table_of(asn) is view
        assert view.owner == asn
        assert len(view) == len(result.rib.entries(asn))

    def test_looking_glass_table_is_the_result_view(self, result):
        asn = result.observed_ases[-1]
        glass = LookingGlass.from_result(result, asn)
        assert glass.table is result.table_of(asn)
        assert glass.best_routes() == list(result.table_of(asn).best_routes())

    def test_looking_glass_builds_no_view_until_asked(self, monkeypatch):
        fresh = get_scenario("small").study(cache=StageCache()).propagation()
        built = []
        build = RibColumns._build_table
        monkeypatch.setattr(
            RibColumns,
            "_build_table",
            lambda rib, owner: built.append(owner) or build(rib, owner),
        )
        asn = fresh.observed_ases[0]
        glass = LookingGlass.from_result(fresh, asn)
        assert built == []
        assert glass.table is fresh.table_of(asn)
        assert built == [asn]

    def test_unobserved_as_raises(self, study, result):
        unobserved = max(study.topology().graph.ases())
        assert unobserved not in result.observed_ases
        with pytest.raises(SimulationError):
            result.table_of(unobserved)
        with pytest.raises(SimulationError):
            LookingGlass.from_result(result, unobserved)
