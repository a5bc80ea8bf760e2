"""Unit tests for repro.net.allocator."""

import pytest

from repro.exceptions import PrefixError
from repro.net.allocator import AddressAllocator
from repro.net.prefix import Prefix


class TestDirectAllocation:
    def test_first_allocation_starts_at_base(self):
        allocator = AddressAllocator(base="10.0.0.0")
        block = allocator.allocate(owner=7018, length=16)
        assert block.prefix == Prefix.parse("10.0.0.0/16")
        assert block.owner == 7018
        assert block.parent_owner is None

    def test_allocations_do_not_overlap(self):
        allocator = AddressAllocator()
        blocks = [allocator.allocate(owner=asn, length=20) for asn in range(1, 40)]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not a.prefix.contains(b.prefix)
                assert not b.prefix.contains(a.prefix)

    def test_mixed_lengths_stay_canonical_and_disjoint(self):
        allocator = AddressAllocator()
        a = allocator.allocate(owner=1, length=24)
        b = allocator.allocate(owner=2, length=16)
        c = allocator.allocate(owner=3, length=24)
        for x, y in [(a, b), (b, c), (a, c)]:
            assert not x.prefix.contains(y.prefix)
            assert not y.prefix.contains(x.prefix)

    def test_rejects_unreasonable_length(self):
        allocator = AddressAllocator()
        with pytest.raises(PrefixError):
            allocator.allocate(owner=1, length=4)
        with pytest.raises(PrefixError):
            allocator.allocate(owner=1, length=32)


class TestSuballocation:
    def test_suballocation_is_inside_parent(self):
        allocator = AddressAllocator()
        parent = allocator.allocate(owner=7018, length=16)
        child = allocator.suballocate(parent, owner=6280, length=24)
        assert parent.prefix.contains(child.prefix)
        assert child.parent_owner == 7018

    def test_suballocations_do_not_overlap(self):
        allocator = AddressAllocator()
        parent = allocator.allocate(owner=1, length=20)
        children = [allocator.suballocate(parent, owner=100 + i, length=24) for i in range(4)]
        for i, a in enumerate(children):
            for b in children[i + 1:]:
                assert a.prefix != b.prefix
                assert not a.prefix.contains(b.prefix)

    def test_suballocate_rejects_shorter_length(self):
        allocator = AddressAllocator()
        parent = allocator.allocate(owner=1, length=20)
        with pytest.raises(PrefixError):
            allocator.suballocate(parent, owner=2, length=20)

    def test_suballocate_exhaustion(self):
        allocator = AddressAllocator()
        parent = allocator.allocate(owner=1, length=23)
        allocator.suballocate(parent, owner=2, length=24)
        allocator.suballocate(parent, owner=3, length=24)
        with pytest.raises(PrefixError):
            allocator.suballocate(parent, owner=4, length=24)
