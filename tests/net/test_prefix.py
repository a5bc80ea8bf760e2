"""Unit tests for repro.net.prefix."""

import pytest

from repro.exceptions import PrefixError
from repro.net.prefix import Prefix, format_ipv4, parse_ipv4


class TestParseFormat:
    def test_parse_ipv4_roundtrip(self):
        assert parse_ipv4("12.10.1.0") == (12 << 24) | (10 << 16) | (1 << 8)

    def test_format_ipv4_roundtrip(self):
        assert format_ipv4(parse_ipv4("192.1.250.23")) == "192.1.250.23"

    def test_parse_ipv4_rejects_short(self):
        with pytest.raises(PrefixError):
            parse_ipv4("10.0.0")

    def test_parse_ipv4_rejects_large_octet(self):
        with pytest.raises(PrefixError):
            parse_ipv4("10.0.0.256")

    def test_parse_ipv4_rejects_garbage(self):
        with pytest.raises(PrefixError):
            parse_ipv4("not.an.ip.addr")

    def test_format_ipv4_rejects_out_of_range(self):
        with pytest.raises(PrefixError):
            format_ipv4(1 << 33)


class TestPrefixConstruction:
    def test_parse_with_length(self):
        prefix = Prefix.parse("12.0.0.0/19")
        assert str(prefix) == "12.0.0.0/19"
        assert prefix.length == 19

    def test_parse_bare_address_is_host_route(self):
        assert Prefix.parse("80.96.180.1").length == 32

    def test_host_bits_are_cleared(self):
        assert str(Prefix.parse("10.1.1.7/24")) == "10.1.1.0/24"

    def test_rejects_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/33")

    def test_rejects_non_numeric_length(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/abc")

    def test_immutability(self):
        prefix = Prefix.parse("10.0.0.0/8")
        with pytest.raises(AttributeError):
            prefix.length = 9


class TestPrefixProperties:
    def test_size(self):
        assert Prefix.parse("10.0.0.0/24").size == 256

    def test_broadcast(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert format_ipv4(prefix.broadcast) == "10.0.0.255"

    def test_default_route(self):
        default = Prefix.parse("0.0.0.0/0")
        assert default.size == 2**32
        assert default.contains(Prefix.parse("200.1.2.0/24"))


class TestContainment:
    def test_contains_more_specific(self):
        assert Prefix.parse("12.0.0.0/19").contains(Prefix.parse("12.0.1.0/24"))

    def test_does_not_contain_disjoint(self):
        assert not Prefix.parse("12.0.0.0/19").contains(Prefix.parse("13.0.0.0/24"))

    def test_does_not_contain_less_specific(self):
        assert not Prefix.parse("12.0.0.0/19").contains(Prefix.parse("12.0.0.0/8"))

    def test_contains_self(self):
        prefix = Prefix.parse("10.1.0.0/16")
        assert prefix.contains(prefix)

    def test_contains_address(self):
        # A bare address parses as a /32 host prefix.
        assert Prefix.parse("10.1.0.0/16").contains(Prefix.parse("10.1.200.3"))
        assert not Prefix.parse("10.1.0.0/16").contains(Prefix.parse("10.2.0.1"))


class TestAlgebra:
    def test_subnets_default(self):
        children = list(Prefix.parse("10.0.0.0/8").subnets())
        assert children == [Prefix.parse("10.0.0.0/9"), Prefix.parse("10.128.0.0/9")]

    def test_subnets_cover_parent_exactly(self):
        parent = Prefix.parse("10.0.0.0/22")
        children = list(parent.subnets(24))
        assert len(children) == 4
        assert sum(child.size for child in children) == parent.size
        assert all(parent.contains(child) for child in children)

    def test_split_power_of_two(self):
        halves = Prefix.parse("12.0.0.0/19").split(2)
        assert [p.length for p in halves] == [20, 20]

    def test_split_rejects_non_power_of_two(self):
        with pytest.raises(PrefixError):
            Prefix.parse("12.0.0.0/19").split(3)


class TestOrderingAndHashing:
    def test_equality_and_hash(self):
        assert Prefix.parse("10.0.0.0/8") == Prefix.parse("10.0.0.1/8")
        assert hash(Prefix.parse("10.0.0.0/8")) == hash(Prefix.parse("10.0.0.1/8"))

    def test_sort_order_by_address_then_length(self):
        prefixes = [
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("9.0.0.0/8"),
        ]
        assert sorted(prefixes) == [
            Prefix.parse("9.0.0.0/8"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.0.0.0/16"),
        ]

    def test_repr_is_informative(self):
        assert "12.0.0.0/19" in repr(Prefix.parse("12.0.0.0/19"))
