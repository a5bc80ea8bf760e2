"""Tests of the deterministic binary packer."""

from array import array

import pytest

from repro.exceptions import StorageError
from repro.storage.packing import pack, unpack


class TestRoundTrip:
    def test_scalars(self):
        for value in (None, True, False, 0, 1, -1, 2**70, -(2**70), 3.25, -0.0,
                      "", "héllo", b"", b"\x00\xff"):
            assert unpack(pack(value)) == value

    def test_preserves_scalar_types(self):
        assert unpack(pack(True)) is True
        assert unpack(pack(1)) == 1 and unpack(pack(1)) is not True
        assert isinstance(unpack(pack(1.0)), float)

    def test_containers(self):
        tree = (1, [2, (3, "x")], b"raw", None, [[], ()])
        assert unpack(pack(tree)) == tree
        assert isinstance(unpack(pack(tree)), tuple)
        assert isinstance(unpack(pack([1]))[0], int)

    def test_arrays(self):
        column = array("q", [0, -5, 2**40])
        restored = unpack(pack((column, array("d", [1.5]))))
        assert restored[0] == column
        assert restored[0].typecode == "q"
        assert restored[1].tolist() == [1.5]

    def test_int_subclasses_lower_to_plain_ints(self):
        import enum

        class Code(enum.IntEnum):
            A = 7

        restored = unpack(pack((Code.A,)))
        assert restored == (7,)
        assert type(restored[0]) is int


class TestDeterminism:
    def test_equal_trees_pack_identically(self):
        tree = ("stage", [1, 2, 3], (4.5, b"x"), array("q", [9]))
        assert pack(tree) == pack(("stage", [1, 2, 3], (4.5, b"x"), array("q", [9])))

    def test_varint_boundaries(self):
        for value in (-(2**63), 2**63 - 1, 127, 128, -128, 16383, 16384):
            assert unpack(pack(value)) == value


class TestErrors:
    def test_rejects_hash_ordered_containers(self):
        with pytest.raises(StorageError):
            pack({"a": 1})
        with pytest.raises(StorageError):
            pack({1, 2})

    def test_truncated_data(self):
        data = pack((1, 2, 3))
        with pytest.raises(StorageError):
            unpack(data[:-1])

    def test_trailing_bytes(self):
        with pytest.raises(StorageError):
            unpack(pack(1) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(StorageError):
            unpack(b"\xfe")
