"""Tests for the Cisco-style show ip bgp text formats."""

import pytest

from repro.bgp.attributes import CommunitySet
from repro.bgp.rib import LocRib
from repro.bgp.route import NeighborKind, Route, originate
from repro.data.show_ip_bgp import format_show_ip_bgp_table, parse_show_ip_bgp_table
from repro.exceptions import DataFormatError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def sample_table(owner=12859):
    table = LocRib(owner=owner)
    table.add_route(
        Route(
            prefix=Prefix.parse("80.96.180.0/24"),
            as_path=ASPath.parse("8220 12878 5606 15471"),
            local_pref=210,
            med=5,
            communities=CommunitySet(["12859:1000"]),
            neighbor_kind=NeighborKind.PEER,
        )
    )
    table.add_route(
        Route(
            prefix=Prefix.parse("80.96.180.0/24"),
            as_path=ASPath.parse("3356 5606 15471"),
            local_pref=80,
        )
    )
    table.add_route(originate(Prefix.parse("10.128.0.0/16"), origin_as=owner))
    return table


class TestTableFormat:
    def test_roundtrip(self):
        table = sample_table()
        text = format_show_ip_bgp_table(table)
        parsed = parse_show_ip_bgp_table(text, view_as=12859)
        assert len(parsed) == len(table)
        prefix = Prefix.parse("80.96.180.0/24")
        assert len(parsed.all_routes(prefix)) == 2
        assert parsed.best_route(prefix).local_pref == 210
        assert str(parsed.best_route(prefix).as_path) == "8220 12878 5606 15471"

    def test_best_marker_present(self):
        text = format_show_ip_bgp_table(sample_table())
        assert "*>" in text
        assert text.count("*>") == 2  # one best per prefix

    def test_local_route_roundtrip(self):
        text = format_show_ip_bgp_table(sample_table())
        parsed = parse_show_ip_bgp_table(text, view_as=12859)
        local = parsed.best_route(Prefix.parse("10.128.0.0/16"))
        assert local is not None
        assert local.as_path.origin_as == 12859

    def test_unparsable_line_rejected(self):
        with pytest.raises(DataFormatError):
            parse_show_ip_bgp_table("*> not a prefix at all\n", view_as=1)

    def test_non_route_lines_ignored(self):
        text = "BGP table version is 1\nsome banner\n"
        parsed = parse_show_ip_bgp_table(text, view_as=1)
        assert len(parsed) == 0
