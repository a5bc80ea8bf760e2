"""A binary radix trie keyed by IPv4 prefixes.

The trie supports the three lookups the analysis pipeline needs:

* exact lookup (used by the BGP substrate),
* *covering* search — all stored prefixes that contain a given prefix
  (used by the prefix-aggregation analysis of Table 9), and
* *covered* search — all stored prefixes contained inside a given prefix
  (used by the prefix-splitting analysis of Table 9).

Values of any type can be associated with prefixes; the trie behaves like a
mapping from :class:`~repro.net.prefix.Prefix` to the stored value.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, TypeVar

from repro.net.prefix import IPV4_BITS, Prefix

ValueT = TypeVar("ValueT")

_SENTINEL = object()


class _Node:
    """One node of the radix trie (internal)."""

    __slots__ = ("children", "value", "prefix")

    def __init__(self) -> None:
        self.children: list["_Node | None"] = [None, None]
        self.value: Any = _SENTINEL
        self.prefix: Prefix | None = None

    @property
    def has_value(self) -> bool:
        return self.value is not _SENTINEL


def _bit_at(network: int, position: int) -> int:
    """Return the bit of ``network`` at ``position`` (0 is the most significant)."""
    return (network >> (IPV4_BITS - 1 - position)) & 1


class PrefixTrie(Generic[ValueT]):
    """A mapping from IPv4 prefixes to values with covering/covered searches."""

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0

    # -- mutation ---------------------------------------------------------

    def insert(self, prefix: Prefix, value: ValueT) -> None:
        """Insert or replace the value stored for ``prefix``."""
        node = self._root
        network = prefix.network
        shift = IPV4_BITS
        for _ in range(prefix.length):
            shift -= 1
            bit = (network >> shift) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.prefix = prefix

    def remove(self, prefix: Prefix) -> None:
        """Remove ``prefix`` from the trie.

        Raises:
            KeyError: if the prefix is not present.
        """
        path: list[tuple[_Node, int]] = []
        node = self._root
        for position in range(prefix.length):
            bit = _bit_at(prefix.network, position)
            child = node.children[bit]
            if child is None:
                raise KeyError(prefix)
            path.append((node, bit))
            node = child
        if not node.has_value:
            raise KeyError(prefix)
        node.value = _SENTINEL
        node.prefix = None
        self._size -= 1
        # Prune now-empty branches so memory stays proportional to contents.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child is not None and not child.has_value and child.children == [None, None]:
                parent.children[bit] = None
            else:
                break

    def clear(self) -> None:
        """Remove every entry."""
        self._root = _Node()
        self._size = 0

    # -- lookups ------------------------------------------------------------

    def get(self, prefix: Prefix, default: ValueT | None = None) -> ValueT | None:
        """Return the value stored for exactly ``prefix``, or ``default``."""
        node = self._find_exact(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def covering(self, prefix: Prefix) -> Iterator[tuple[Prefix, ValueT]]:
        """Yield stored (prefix, value) pairs that contain ``prefix``, shortest first.

        The prefix itself is included when present.
        """
        node = self._root
        if node.has_value:
            yield node.prefix, node.value  # type: ignore[misc]
        for position in range(prefix.length):
            bit = _bit_at(prefix.network, position)
            child = node.children[bit]
            if child is None:
                return
            node = child
            if node.has_value:
                yield node.prefix, node.value  # type: ignore[misc]

    def covered(self, prefix: Prefix) -> Iterator[tuple[Prefix, ValueT]]:
        """Yield stored (prefix, value) pairs contained inside ``prefix`` (inclusive)."""
        node = self._find_exact(prefix)
        if node is None:
            return
        yield from self._walk(node)

    # -- iteration ------------------------------------------------------------

    def items(self) -> Iterator[tuple[Prefix, ValueT]]:
        """Yield every stored (prefix, value) pair in trie (address) order."""
        yield from self._walk(self._root)

    def prefixes(self) -> Iterator[Prefix]:
        """Yield every stored prefix in trie (address) order."""
        for prefix, _ in self.items():
            yield prefix

    def _walk(self, node: _Node) -> Iterator[tuple[Prefix, ValueT]]:
        stack: list[_Node] = [node]
        while stack:
            current = stack.pop()
            if current.has_value:
                yield current.prefix, current.value  # type: ignore[misc]
            for child in reversed(current.children):
                if child is not None:
                    stack.append(child)

    def _find_exact(self, prefix: Prefix) -> _Node | None:
        node = self._root
        network = prefix.network
        shift = IPV4_BITS
        for _ in range(prefix.length):
            shift -= 1
            child = node.children[(network >> shift) & 1]
            if child is None:
                return None
            node = child
        return node

    # -- mapping protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: object) -> bool:
        if not isinstance(prefix, Prefix):
            return False
        node = self._find_exact(prefix)
        return node is not None and node.has_value

    def __getitem__(self, prefix: Prefix) -> ValueT:
        node = self._find_exact(prefix)
        if node is None or not node.has_value:
            raise KeyError(prefix)
        return node.value

    def __setitem__(self, prefix: Prefix, value: ValueT) -> None:
        self.insert(prefix, value)

    def __delitem__(self, prefix: Prefix) -> None:
        self.remove(prefix)

    def __iter__(self) -> Iterator[Prefix]:
        return self.prefixes()

    def __repr__(self) -> str:
        return f"PrefixTrie(size={self._size})"
