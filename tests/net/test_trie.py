"""Unit tests for repro.net.trie."""

import pytest

from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie


def build_trie(entries):
    trie = PrefixTrie()
    for text, value in entries:
        trie.insert(Prefix.parse(text), value)
    return trie


class TestBasicMapping:
    def test_insert_and_get(self):
        trie = build_trie([("10.0.0.0/8", "a")])
        assert trie.get(Prefix.parse("10.0.0.0/8")) == "a"

    def test_get_missing_returns_default(self):
        trie = PrefixTrie()
        assert trie.get(Prefix.parse("10.0.0.0/8"), default="none") == "none"

    def test_setitem_getitem(self):
        trie = PrefixTrie()
        trie[Prefix.parse("12.0.0.0/19")] = 42
        assert trie[Prefix.parse("12.0.0.0/19")] == 42

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            PrefixTrie()[Prefix.parse("10.0.0.0/8")]

    def test_contains(self):
        trie = build_trie([("10.0.0.0/8", 1)])
        assert Prefix.parse("10.0.0.0/8") in trie
        assert Prefix.parse("10.0.0.0/9") not in trie
        assert "10.0.0.0/8" not in trie

    def test_len_counts_unique_prefixes(self):
        trie = build_trie([("10.0.0.0/8", 1), ("10.0.0.0/8", 2), ("11.0.0.0/8", 3)])
        assert len(trie) == 2

    def test_overwrite_keeps_latest_value(self):
        trie = build_trie([("10.0.0.0/8", 1), ("10.0.0.0/8", 2)])
        assert trie[Prefix.parse("10.0.0.0/8")] == 2

    def test_remove(self):
        trie = build_trie([("10.0.0.0/8", 1), ("10.1.0.0/16", 2)])
        trie.remove(Prefix.parse("10.0.0.0/8"))
        assert len(trie) == 1
        assert Prefix.parse("10.0.0.0/8") not in trie
        assert Prefix.parse("10.1.0.0/16") in trie

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            PrefixTrie().remove(Prefix.parse("10.0.0.0/8"))

    def test_delitem(self):
        trie = build_trie([("10.0.0.0/8", 1)])
        del trie[Prefix.parse("10.0.0.0/8")]
        assert len(trie) == 0

    def test_clear(self):
        trie = build_trie([("10.0.0.0/8", 1), ("11.0.0.0/8", 2)])
        trie.clear()
        assert len(trie) == 0
        assert list(trie.items()) == []

    def test_default_route_entry(self):
        trie = build_trie([("0.0.0.0/0", "default")])
        assert trie.get(Prefix.parse("0.0.0.0/0")) == "default"
        assert list(trie.covering(Prefix.parse("200.7.8.0/24"))) == [
            (Prefix.parse("0.0.0.0/0"), "default")
        ]


class TestLongestMatch:
    """The longest match is the last pair ``covering`` yields (shortest first)."""

    def test_picks_most_specific(self):
        trie = build_trie([("10.0.0.0/8", "short"), ("10.1.0.0/16", "long")])
        assert list(trie.covering(Prefix.parse("10.1.2.0/24"))) == [
            (Prefix.parse("10.0.0.0/8"), "short"),
            (Prefix.parse("10.1.0.0/16"), "long"),
        ]

    def test_no_match_returns_none(self):
        trie = build_trie([("10.0.0.0/8", "a")])
        assert list(trie.covering(Prefix.parse("11.0.0.0/24"))) == []

    def test_lookup_address(self):
        # A bare address parses as a /32 host prefix.
        trie = build_trie([("12.10.0.0/19", "block"), ("12.10.1.0/24", "specific")])
        *_, (prefix, value) = trie.covering(Prefix.parse("12.10.1.77"))
        assert (prefix, value) == (Prefix.parse("12.10.1.0/24"), "specific")
        *_, (prefix, value) = trie.covering(Prefix.parse("12.10.9.1"))
        assert (prefix, value) == (Prefix.parse("12.10.0.0/19"), "block")

    def test_exact_prefix_matches_itself(self):
        trie = build_trie([("10.1.0.0/16", "x")])
        assert list(trie.covering(Prefix.parse("10.1.0.0/16"))) == [
            (Prefix.parse("10.1.0.0/16"), "x")
        ]


class TestCoverageQueries:
    def test_covering(self):
        trie = build_trie(
            [("10.0.0.0/8", 8), ("10.1.0.0/16", 16), ("10.1.1.0/24", 24), ("11.0.0.0/8", 0)]
        )
        covering = list(trie.covering(Prefix.parse("10.1.1.0/25")))
        assert [p.length for p, _ in covering] == [8, 16, 24]

    def test_covered(self):
        trie = build_trie(
            [("10.0.0.0/8", 8), ("10.1.0.0/16", 16), ("10.1.1.0/24", 24), ("11.0.0.0/8", 0)]
        )
        covered = {p for p, _ in trie.covered(Prefix.parse("10.1.0.0/16"))}
        assert covered == {Prefix.parse("10.1.0.0/16"), Prefix.parse("10.1.1.0/24")}

    def test_has_more_specific(self):
        # Table 9's splitting check reads the stored prefixes strictly inside one.
        trie = build_trie([("10.1.0.0/16", 1), ("10.1.1.0/24", 2)])

        def strictly_covered(text):
            prefix = Prefix.parse(text)
            return [stored for stored, _ in trie.covered(prefix) if stored != prefix]

        assert strictly_covered("10.1.0.0/16") == [Prefix.parse("10.1.1.0/24")]
        assert strictly_covered("10.1.1.0/24") == []

    def test_has_less_specific(self):
        # Table 9's aggregating check: a strictly covering prefix is stored.
        trie = build_trie([("10.0.0.0/8", 1), ("10.1.1.0/24", 2)])

        def has_less_specific(text):
            prefix = Prefix.parse(text)
            return any(stored.length < prefix.length for stored, _ in trie.covering(prefix))

        assert has_less_specific("10.1.1.0/24")
        assert not has_less_specific("10.0.0.0/8")


class TestIteration:
    def test_items_yields_everything(self):
        entries = [("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("192.168.0.0/16", 3)]
        trie = build_trie(entries)
        assert {str(p): v for p, v in trie.items()} == {t: v for t, v in entries}

    def test_iter_yields_prefixes(self):
        trie = build_trie([("10.0.0.0/8", 1), ("11.0.0.0/8", 2)])
        assert set(trie) == {Prefix.parse("10.0.0.0/8"), Prefix.parse("11.0.0.0/8")}

    def test_repr(self):
        assert "size=1" in repr(build_trie([("10.0.0.0/8", 1)]))
