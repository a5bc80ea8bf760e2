"""Unit tests for repro.bgp.rib."""

from repro.bgp.rib import LocRib
from repro.bgp.route import NeighborKind, Route
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def route(prefix, path, **kwargs):
    return Route(prefix=Prefix.parse(prefix), as_path=ASPath.parse(path), **kwargs)


class TestLocRib:
    def test_best_route_selection(self):
        rib = LocRib(owner=1)
        customer = route("10.0.0.0/16", "852 6280", local_pref=110,
                         neighbor_kind=NeighborKind.CUSTOMER)
        peer = route("10.0.0.0/16", "3549 6280", local_pref=90,
                     neighbor_kind=NeighborKind.PEER)
        rib.add_route(peer)
        rib.add_route(customer)
        assert rib.best_route(Prefix.parse("10.0.0.0/16")) is customer
        assert len(rib.all_routes(Prefix.parse("10.0.0.0/16"))) == 2

    def test_entry_alternatives(self):
        rib = LocRib(owner=1)
        a = route("10.0.0.0/16", "2 9", local_pref=110)
        b = route("10.0.0.0/16", "3 9", local_pref=80)
        rib.add_route(a)
        rib.add_route(b)
        entry = rib.entry(Prefix.parse("10.0.0.0/16"))
        assert entry.best is a
        assert entry.alternatives() == [b]

    def test_same_neighbor_replaces_previous_announcement(self):
        rib = LocRib(owner=1)
        rib.add_route(route("10.0.0.0/16", "2 9"))
        rib.add_route(route("10.0.0.0/16", "2 7 9"))
        assert len(rib.all_routes(Prefix.parse("10.0.0.0/16"))) == 1

    def test_best_routes_and_neighbors(self):
        rib = LocRib(owner=1)
        rib.add_route(route("10.0.0.0/16", "2 9"))
        rib.add_route(route("10.1.0.0/16", "3 8"))
        assert len(list(rib.best_routes())) == 2
        assert rib.neighbors() == {2, 3}

    def test_prefixes_originated_by(self):
        rib = LocRib(owner=1)
        rib.add_route(route("10.0.0.0/16", "2 9"))
        rib.add_route(route("10.1.0.0/16", "3 9"))
        rib.add_route(route("10.2.0.0/16", "3 8"))
        originated = rib.prefixes_originated_by(9)
        assert set(originated) == {Prefix.parse("10.0.0.0/16"), Prefix.parse("10.1.0.0/16")}

    def test_repr(self):
        assert "AS1" in repr(LocRib(owner=1))
