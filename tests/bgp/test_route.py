"""Unit tests for repro.bgp.route."""

from repro.bgp.attributes import CommunitySet, DEFAULT_LOCAL_PREF
from repro.bgp.route import NeighborKind, Route, RouteSource, originate
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def make_route(path="7018 1239 6280", prefix="10.1.0.0/16", **kwargs):
    return Route(prefix=Prefix.parse(prefix), as_path=ASPath.parse(path), **kwargs)


class TestRouteBasics:
    def test_learned_from_defaults_to_next_hop(self):
        route = make_route("7018 1239 6280")
        assert route.learned_from == 7018
        assert route.next_hop_as == 7018
        assert route.origin_as == 6280

    def test_explicit_learned_from_wins(self):
        route = make_route("7018 1239 6280", learned_from=99)
        assert route.next_hop_as == 99

    def test_default_attributes(self):
        route = make_route()
        assert route.local_pref == DEFAULT_LOCAL_PREF
        assert route.med == 0
        assert not route.communities
        assert route.source is RouteSource.EBGP

    def test_str_mentions_prefix_and_kind(self):
        text = str(make_route(neighbor_kind=NeighborKind.PEER))
        assert "10.1.0.0/16" in text and "peer" in text


class TestDerivation:
    def test_with_communities(self):
        updated = make_route().with_communities(CommunitySet(["12859:1000"]))
        assert updated.communities.has("12859:1000")

class TestOriginate:
    def test_originate_is_local_single_as_path(self):
        route = originate(Prefix.parse("10.2.0.0/16"), origin_as=6280)
        assert route.is_local
        assert route.origin_as == 6280
        assert route.as_path.asns == (6280,)
        assert route.learned_from == 6280

    def test_originate_with_communities(self):
        route = originate(
            Prefix.parse("10.2.0.0/16"), origin_as=6280,
            communities=CommunitySet(["6280:1"]),
        )
        assert route.communities.has("6280:1")
