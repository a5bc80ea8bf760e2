"""Unit tests for repro.bgp.attributes."""

import pytest

from repro.bgp.attributes import (
    Community,
    CommunitySet,
    Origin,
    WellKnownCommunity,
)
from repro.exceptions import PolicyError


class TestOrigin:
    def test_ordering_matches_preference(self):
        assert Origin.IGP < Origin.EGP < Origin.INCOMPLETE


class TestCommunity:
    def test_parse(self):
        community = Community.parse("12859:1000")
        assert community.asn == 12859
        assert community.value == 1000

    def test_str_roundtrip(self):
        assert str(Community.parse("12859:4000")) == "12859:4000"

    def test_wire_roundtrip(self):
        community = Community(7018, 5000)
        assert Community.from_int(community.to_int()) == community

    def test_parse_rejects_missing_colon(self):
        with pytest.raises(PolicyError):
            Community.parse("128591000")

    def test_parse_rejects_garbage(self):
        with pytest.raises(PolicyError):
            Community.parse("a:b")

    def test_rejects_out_of_range_parts(self):
        with pytest.raises(PolicyError):
            Community(70000, 1)
        with pytest.raises(PolicyError):
            Community(1, 70000)

    def test_from_int_rejects_out_of_range(self):
        with pytest.raises(PolicyError):
            Community.from_int(1 << 33)

    def test_ordering(self):
        assert Community(1, 2) < Community(1, 3) < Community(2, 0)


class TestCommunitySet:
    def test_construct_from_strings(self):
        communities = CommunitySet(["12859:1000", "12859:4000"])
        assert communities.has("12859:1000")
        assert communities.has(Community(12859, 4000))
        assert not communities.has("12859:2000")

    def test_well_known_flags(self):
        communities = CommunitySet(well_known=[WellKnownCommunity.NO_EXPORT])
        assert WellKnownCommunity.NO_EXPORT in communities.well_known
        assert WellKnownCommunity.NO_ADVERTISE not in communities.well_known

    def test_add_and_remove_are_pure(self):
        base = CommunitySet(["1:1"])
        extended = base.add("1:2", WellKnownCommunity.NO_EXPORT)
        assert not base.has("1:2")
        assert extended.has("1:2")
        assert WellKnownCommunity.NO_EXPORT in extended.well_known
        shrunk = extended.remove("1:1", WellKnownCommunity.NO_EXPORT)
        assert not shrunk.has("1:1")
        assert shrunk.has("1:2")
        assert WellKnownCommunity.NO_EXPORT not in shrunk.well_known

    def test_remove_missing_is_noop(self):
        base = CommunitySet(["1:1"])
        assert base.remove("9:9") == base

    def test_from_asn(self):
        communities = CommunitySet(["12859:1000", "12859:2000", "3549:100"])
        assert communities.from_asn(12859) == frozenset(
            {Community(12859, 1000), Community(12859, 2000)}
        )

    def test_immutability(self):
        communities = CommunitySet(["1:1"])
        with pytest.raises(AttributeError):
            communities._communities = frozenset()

    def test_equality_and_hash(self):
        a = CommunitySet(["1:1", "2:2"])
        b = CommunitySet([Community(2, 2), Community(1, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_len_bool_iter(self):
        empty = CommunitySet()
        assert not empty
        assert len(empty) == 0
        full = CommunitySet(["1:1"], well_known=[WellKnownCommunity.NO_EXPORT])
        assert full
        assert len(full) == 2
        assert list(full) == [Community(1, 1)]

    def test_str_lists_everything(self):
        text = str(CommunitySet(["1:1"], well_known=[WellKnownCommunity.NO_EXPORT]))
        assert "1:1" in text and "NO_EXPORT" in text
