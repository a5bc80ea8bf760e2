"""Unit tests for repro.net.allocator."""

import pytest

from repro.exceptions import PrefixError
from repro.net.allocator import AddressAllocator
from repro.net.prefix import Prefix


class TestDirectAllocation:
    def test_first_allocation_starts_at_base(self):
        allocator = AddressAllocator(base="10.0.0.0")
        assert allocator.allocate(length=16) == Prefix.parse("10.0.0.0/16")

    def test_allocations_do_not_overlap(self):
        allocator = AddressAllocator()
        blocks = [allocator.allocate(length=20) for _ in range(1, 40)]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not a.contains(b)
                assert not b.contains(a)

    def test_mixed_lengths_stay_canonical_and_disjoint(self):
        allocator = AddressAllocator()
        a = allocator.allocate(length=24)
        b = allocator.allocate(length=16)
        c = allocator.allocate(length=24)
        assert b == Prefix.parse("10.1.0.0/16")  # aligned past a
        for x, y in [(a, b), (b, c), (a, c)]:
            assert not x.contains(y)
            assert not y.contains(x)

    def test_rejects_unreasonable_length(self):
        allocator = AddressAllocator()
        with pytest.raises(PrefixError):
            allocator.allocate(length=4)
        with pytest.raises(PrefixError):
            allocator.allocate(length=32)


class TestSuballocation:
    def test_suballocation_is_inside_parent(self):
        allocator = AddressAllocator()
        parent = allocator.allocate(length=16)
        child = allocator.suballocate(parent, length=24)
        assert parent.contains(child)
        assert child == Prefix.parse("10.0.0.0/24")

    def test_suballocations_do_not_overlap(self):
        allocator = AddressAllocator()
        parent = allocator.allocate(length=20)
        children = [allocator.suballocate(parent, length=24) for _ in range(4)]
        for i, a in enumerate(children):
            for b in children[i + 1:]:
                assert a != b
                assert not a.contains(b)

    def test_suballocate_rejects_shorter_length(self):
        allocator = AddressAllocator()
        parent = allocator.allocate(length=20)
        with pytest.raises(PrefixError):
            allocator.suballocate(parent, length=20)

    def test_suballocate_exhaustion(self):
        allocator = AddressAllocator()
        parent = allocator.allocate(length=23)
        allocator.suballocate(parent, length=24)
        allocator.suballocate(parent, length=24)
        with pytest.raises(PrefixError):
            allocator.suballocate(parent, length=24)
