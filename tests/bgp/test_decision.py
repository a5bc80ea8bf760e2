"""Unit tests for the BGP decision process (paper Section 2.2.1)."""

import pytest

from repro.bgp.attributes import Origin
from repro.bgp.decision import DecisionProcess, DecisionStep
from repro.bgp.route import Route, RouteSource
from repro.exceptions import PolicyError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

PREFIX = Prefix.parse("10.1.0.0/16")


def route(path="1 2", **kwargs):
    return Route(prefix=PREFIX, as_path=ASPath.parse(path), **kwargs)


@pytest.fixture
def decision():
    return DecisionProcess()


class TestPairwise:
    def test_local_pref_wins_over_shorter_path(self, decision):
        customer = route("3 4 5 6", local_pref=110)
        peer = route("7 8", local_pref=90)
        comparison = decision.compare(customer, peer)
        assert comparison.winner is customer
        assert comparison.step is DecisionStep.LOCAL_PREF

    def test_shorter_path_breaks_equal_local_pref(self, decision):
        short = route("1 9")
        long = route("2 3 9")
        comparison = decision.compare(long, short)
        assert comparison.winner is short
        assert comparison.step is DecisionStep.AS_PATH_LENGTH

    def test_origin_breaks_tie(self, decision):
        igp = route("1 9", origin=Origin.IGP)
        incomplete = route("2 9", origin=Origin.INCOMPLETE)
        comparison = decision.compare(incomplete, igp)
        assert comparison.winner is igp
        assert comparison.step is DecisionStep.ORIGIN

    def test_med_only_compared_same_next_hop(self, decision):
        low_med = route("1 9", med=10)
        high_med = route("1 9", med=50, router_id=2)
        comparison = decision.compare(high_med, low_med)
        assert comparison.winner is low_med
        assert comparison.step is DecisionStep.MED

    def test_med_ignored_across_different_next_hops(self, decision):
        from_as1 = route("1 9", med=50)
        from_as2 = route("2 9", med=10)
        comparison = decision.compare(from_as1, from_as2)
        assert comparison.step is not DecisionStep.MED

    def test_always_compare_med_option(self):
        decision = DecisionProcess(compare_med_only_same_neighbor=False)
        from_as1 = route("1 9", med=50)
        from_as2 = route("2 9", med=10)
        comparison = decision.compare(from_as1, from_as2)
        assert comparison.winner is from_as2
        assert comparison.step is DecisionStep.MED

    def test_ebgp_preferred_over_ibgp(self, decision):
        ebgp = route("1 9", source=RouteSource.EBGP)
        ibgp = route("2 9", source=RouteSource.IBGP)
        comparison = decision.compare(ibgp, ebgp)
        assert comparison.winner is ebgp
        assert comparison.step is DecisionStep.EBGP_OVER_IBGP

    def test_igp_metric_tiebreak(self, decision):
        near = route("1 9", igp_metric=5)
        far = route("2 9", igp_metric=50)
        comparison = decision.compare(far, near)
        assert comparison.winner is near
        assert comparison.step is DecisionStep.IGP_METRIC

    def test_router_id_last_resort(self, decision):
        a = route("1 9", router_id=1)
        b = route("2 9", router_id=2)
        comparison = decision.compare(b, a)
        assert comparison.winner is a
        assert comparison.step is DecisionStep.ROUTER_ID

    def test_identical_routes_tie(self, decision):
        a = route("1 9")
        b = route("1 9")
        comparison = decision.compare(a, b)
        assert comparison.winner is None
        assert comparison.step is DecisionStep.TIE

    def test_prefer_returns_left_on_tie(self, decision):
        # On a complete tie the incumbent (earlier) route is kept.
        a = route("1 9")
        b = route("1 9")
        assert decision.compare(a, b).winner is None
        assert decision.select_best([a, b]) is a
        assert decision.select_best([b, a]) is b

    def test_rejects_different_prefixes(self, decision):
        a = route("1 9")
        b = Route(prefix=Prefix.parse("10.2.0.0/16"), as_path=ASPath.parse("1 9"))
        with pytest.raises(PolicyError):
            decision.compare(a, b)


class TestSelection:
    def test_select_best_empty(self, decision):
        assert decision.select_best([]) is None

    def test_select_best_single(self, decision):
        only = route("1 9")
        assert decision.select_best([only]) is only

    def test_select_best_prefers_highest_local_pref(self, decision):
        candidates = [
            route("1 9", local_pref=80),
            route("2 3 9", local_pref=110),
            route("4 9", local_pref=90),
        ]
        assert decision.select_best(candidates) is candidates[1]

    def test_selection_is_order_independent_when_strict(self, decision):
        a = route("1 9", local_pref=80)
        b = route("2 9", local_pref=110)
        assert decision.select_best([a, b]) is b
        assert decision.select_best([b, a]) is b
