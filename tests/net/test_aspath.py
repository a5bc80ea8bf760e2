"""Unit tests for repro.net.aspath."""

import pytest

from repro.exceptions import ASPathError
from repro.net.aspath import ASPath


class TestConstruction:
    def test_parse(self):
        path = ASPath.parse("8220 12878 5606 15471")
        assert path.asns == (8220, 12878, 5606, 15471)

    def test_parse_empty(self):
        assert len(ASPath.parse("   ")) == 0

    def test_origin_only(self):
        path = ASPath.origin_only(6280)
        assert path.origin_as == 6280
        assert path.next_hop_as == 6280
        assert len(path) == 1

    def test_rejects_negative(self):
        with pytest.raises(ASPathError):
            ASPath([7018, -1])

    def test_immutable(self):
        path = ASPath([1, 2])
        with pytest.raises(AttributeError):
            path._asns = (3,)


class TestViews:
    def test_next_hop_and_origin(self):
        path = ASPath.parse("7018 1239 701 6280")
        assert path.next_hop_as == 7018
        assert path.origin_as == 6280

    def test_empty_path_has_no_next_hop(self):
        with pytest.raises(ASPathError):
            ASPath().next_hop_as

    def test_empty_path_has_no_origin(self):
        with pytest.raises(ASPathError):
            ASPath().origin_as

    def test_contains_and_loop(self):
        path = ASPath.parse("1 2 3")
        assert path.contains(2)
        assert path.has_loop_for(3)
        assert not path.has_loop_for(4)


class TestOperations:
    def test_prepend(self):
        path = ASPath.parse("2 3").prepend(1)
        assert path.asns == (1, 2, 3)

    def test_prepend_multiple(self):
        path = ASPath.parse("2 3").prepend(1, count=3)
        assert path.asns == (1, 1, 1, 2, 3)
        assert path.deduplicate().asns == (1, 2, 3)

    def test_prepend_rejects_zero_count(self):
        with pytest.raises(ASPathError):
            ASPath.parse("2").prepend(1, count=0)

    def test_startswith(self):
        path = ASPath.parse("1 2 3 4")
        assert path.startswith(ASPath.parse("1 2"))
        assert path.startswith([1, 2, 3])
        assert not path.startswith([2, 3])


class TestDunder:
    def test_equality_and_hash(self):
        assert ASPath.parse("1 2") == ASPath([1, 2])
        assert hash(ASPath.parse("1 2")) == hash(ASPath([1, 2]))
        assert ASPath.parse("1 2") != ASPath.parse("2 1")

    def test_iteration_and_indexing(self):
        path = ASPath.parse("5 6 7")
        assert list(path) == [5, 6, 7]
        assert path[1] == 6

    def test_bool(self):
        assert not ASPath()
        assert ASPath([1])

    def test_str_roundtrip(self):
        text = "7018 1239 701"
        assert str(ASPath.parse(text)) == text
