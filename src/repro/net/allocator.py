"""Address-space allocation for the synthetic Internet.

The topology generator needs to hand out prefixes to ASes the way the real
Internet did circa 2002:

* large providers receive big blocks directly ("provider-independent" space),
* some customers receive sub-allocations carved out of their provider's block
  ("provider-assigned" space) — exactly the situation that makes *prefix
  aggregating* possible (paper Section 5.1.5, Case 2), and
* some ASes split one of their prefixes into more-specifics for traffic
  engineering — the *prefix splitting* case (Case 1).

:class:`AddressAllocator` tracks which AS owns which block and who carved a
block out of whose space, so the causes analysis can be validated against
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import PrefixError
from repro.net.asn import ASN
from repro.net.prefix import Prefix


@dataclass(frozen=True)
class AddressBlock:
    """One allocated block of address space.

    Attributes:
        prefix: the allocated prefix.
        owner: AS number the block was allocated to.
        parent_owner: AS number of the provider the block was carved out of,
            or ``None`` for a direct (provider-independent) allocation.
    """

    prefix: Prefix
    owner: ASN
    parent_owner: ASN | None = None


@dataclass
class AddressAllocator:
    """Sequentially allocates non-overlapping blocks from a private pool.

    The pool starts at ``base`` (default ``10.0.0.0``) and walks upward in
    units of the requested block size.  Sub-allocations are carved from the
    *unused tail* of a previously allocated block.

    Attributes:
        base: first address of the pool (dotted quad).
        blocks: every block handed out so far, in allocation order.
    """

    base: str = "10.0.0.0"
    blocks: list[AddressBlock] = field(default_factory=list)
    _cursor: int = field(default=0, init=False)
    _sub_cursors: dict[Prefix, int] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        from repro.net.prefix import parse_ipv4

        self._cursor = parse_ipv4(self.base)

    # -- direct allocations ------------------------------------------------

    def allocate(self, owner: ASN, length: int) -> AddressBlock:
        """Allocate the next free block of the given prefix length to ``owner``."""
        if not (8 <= length <= 30):
            raise PrefixError(f"unsupported allocation length: /{length}")
        size = 1 << (32 - length)
        # Align the cursor to the block size so the prefix is canonical.
        if self._cursor % size:
            self._cursor += size - (self._cursor % size)
        prefix = Prefix(self._cursor, length)
        self._cursor += size
        block = AddressBlock(prefix=prefix, owner=owner)
        self.blocks.append(block)
        return block

    # -- provider-assigned sub-allocations --------------------------------------

    def suballocate(
        self, parent: AddressBlock, owner: ASN, length: int
    ) -> AddressBlock:
        """Carve a more-specific block for ``owner`` out of ``parent``.

        Sub-allocations from the same parent never overlap; they are carved
        sequentially from the start of the parent block.

        Raises:
            PrefixError: if the requested length does not fit inside the
                parent or the parent block is exhausted.
        """
        if length <= parent.prefix.length:
            raise PrefixError(
                f"sub-allocation /{length} is not more specific than parent "
                f"{parent.prefix}"
            )
        size = 1 << (32 - length)
        cursor = self._sub_cursors.get(parent.prefix, parent.prefix.network)
        if cursor + size - 1 > parent.prefix.broadcast:
            raise PrefixError(f"parent block {parent.prefix} is exhausted")
        prefix = Prefix(cursor, length)
        self._sub_cursors[parent.prefix] = cursor + size
        block = AddressBlock(prefix=prefix, owner=owner, parent_owner=parent.owner)
        self.blocks.append(block)
        return block

    # -- state snapshots (used by the storage codecs) -----------------------

    def dump_state(self) -> tuple:
        """Snapshot the allocator's complete state as plain values.

        Returns ``(base, cursor, blocks, sub_cursors)`` where blocks are
        ``(prefix, owner, parent_owner)`` triples in allocation order and
        sub-cursors are ``(parent prefix, next address)`` pairs in map
        order.  :meth:`from_state` restores an allocator that will hand
        out exactly the same future allocations.
        """
        return (
            self.base,
            self._cursor,
            [(block.prefix, block.owner, block.parent_owner) for block in self.blocks],
            list(self._sub_cursors.items()),
        )

    @classmethod
    def from_state(cls, state: tuple) -> "AddressAllocator":
        """Rebuild an allocator from a :meth:`dump_state` snapshot."""
        base, cursor, blocks, sub_cursors = state
        allocator = cls(base=base)
        allocator._cursor = cursor
        allocator.blocks = [
            AddressBlock(prefix=prefix, owner=owner, parent_owner=parent_owner)
            for prefix, owner, parent_owner in blocks
        ]
        allocator._sub_cursors = dict(sub_cursors)
        return allocator
