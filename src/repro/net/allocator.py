"""Address-space allocation for the synthetic Internet.

The topology generator needs to hand out prefixes to ASes the way the real
Internet did circa 2002:

* large providers receive big blocks directly ("provider-independent" space),
* some customers receive sub-allocations carved out of their provider's block
  ("provider-assigned" space) — exactly the situation that makes *prefix
  aggregating* possible (paper Section 5.1.5, Case 2), and
* some ASes split one of their prefixes into more-specifics for traffic
  engineering — the *prefix splitting* case (Case 1).

:class:`AddressAllocator` only hands out non-overlapping prefixes; who owns
which prefix is recorded once, in the generated Internet's prefix map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import PrefixError
from repro.net.prefix import Prefix


@dataclass
class AddressAllocator:
    """Sequentially allocates non-overlapping prefixes from a private pool.

    The pool starts at ``base`` (default ``10.0.0.0``) and walks upward in
    units of the requested block size.  Sub-allocations are carved from the
    *unused tail* of a previously allocated prefix.

    Attributes:
        base: first address of the pool (dotted quad).
    """

    base: str = "10.0.0.0"
    _cursor: int = field(default=0, init=False)
    _sub_cursors: dict[Prefix, int] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        from repro.net.prefix import parse_ipv4

        self._cursor = parse_ipv4(self.base)

    # -- direct allocations ------------------------------------------------

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free prefix of the given length."""
        if not (8 <= length <= 30):
            raise PrefixError(f"unsupported allocation length: /{length}")
        size = 1 << (32 - length)
        # Align the cursor to the block size so the prefix is canonical.
        if self._cursor % size:
            self._cursor += size - (self._cursor % size)
        prefix = Prefix(self._cursor, length)
        self._cursor += size
        return prefix

    # -- provider-assigned sub-allocations --------------------------------------

    def suballocate(self, parent: Prefix, length: int) -> Prefix:
        """Carve a more-specific prefix out of ``parent``.

        Sub-allocations from the same parent never overlap; they are carved
        sequentially from the start of the parent prefix.

        Raises:
            PrefixError: if the requested length does not fit inside the
                parent or the parent prefix is exhausted.
        """
        if length <= parent.length:
            raise PrefixError(
                f"sub-allocation /{length} is not more specific than parent {parent}"
            )
        size = 1 << (32 - length)
        cursor = self._sub_cursors.get(parent, parent.network)
        if cursor + size - 1 > parent.broadcast:
            raise PrefixError(f"parent block {parent} is exhausted")
        self._sub_cursors[parent] = cursor + size
        return Prefix(cursor, length)
