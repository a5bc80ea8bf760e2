"""Immutable IPv4 prefixes: parsing, containment and splitting.

The paper's prefix-splitting and prefix-aggregation analyses (Section 5.1.5,
Table 9) require asking questions such as "can this prefix be aggregated by
another prefix announced by the same origin?" and "is this prefix a more
specific split out of that one?".  :class:`Prefix` provides that algebra
without depending on :mod:`ipaddress`, keeping the representation a plain
``(network_int, length)`` pair that is cheap to hash and compare — routing
tables in the experiments contain hundreds of thousands of these objects.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator

from repro.exceptions import PrefixError

#: Number of bits in an IPv4 address.
IPV4_BITS = 32

#: Maximum value of an IPv4 address as an integer.
IPV4_MAX = 0xFFFFFFFF


def _mask_for(length: int) -> int:
    """Return the network mask for a prefix length as an integer."""
    if length == 0:
        return 0
    return (IPV4_MAX << (IPV4_BITS - length)) & IPV4_MAX


def parse_ipv4(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    Raises:
        PrefixError: if the text is not a valid dotted-quad address.
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise PrefixError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise PrefixError(f"invalid IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"invalid IPv4 address octet in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format an integer as a dotted-quad IPv4 address."""
    if not (0 <= value <= IPV4_MAX):
        raise PrefixError(f"IPv4 address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@total_ordering
class Prefix:
    """An immutable IPv4 prefix such as ``12.10.0.0/19``.

    The host bits of the supplied network address are cleared, mirroring the
    behaviour of routers when a prefix is configured with a non-canonical
    address.

    Attributes:
        network: integer value of the (canonicalised) network address.
        length: prefix length in bits, 0–32.
    """

    __slots__ = ("network", "length")

    def __init__(self, network: int, length: int) -> None:
        if not (0 <= length <= IPV4_BITS):
            raise PrefixError(f"invalid prefix length: {length}")
        if not (0 <= network <= IPV4_MAX):
            raise PrefixError(f"network address out of range: {network}")
        object.__setattr__(self, "network", network & _mask_for(length))
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix objects are immutable")

    def __copy__(self) -> "Prefix":
        return self

    def __deepcopy__(self, memo: dict) -> "Prefix":
        return self

    def __reduce__(self):
        return (Prefix, (self.network, self.length))

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, meaning a /32)."""
        text = text.strip()
        if "/" in text:
            address_text, _, length_text = text.partition("/")
            if not length_text.isdigit():
                raise PrefixError(f"invalid prefix length in {text!r}")
            length = int(length_text)
        else:
            address_text, length = text, IPV4_BITS
        return cls(parse_ipv4(address_text), length)

    # -- basic properties ----------------------------------------------

    @property
    def mask(self) -> int:
        """The network mask as an integer."""
        return _mask_for(self.length)

    @property
    def broadcast(self) -> int:
        """The highest address covered by the prefix, as an integer."""
        return self.network | (IPV4_MAX >> self.length if self.length else IPV4_MAX)

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (IPV4_BITS - self.length)

    # -- algebra --------------------------------------------------------

    def contains(self, other: "Prefix") -> bool:
        """Return ``True`` if ``other`` is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.network & self.mask) == self.network

    def subnets(self, new_length: int | None = None) -> Iterator["Prefix"]:
        """Yield the subnets of the given (longer) length, in address order.

        Without an argument, yields the two immediate children.
        """
        if new_length is None:
            new_length = self.length + 1
        if new_length < self.length or new_length > IPV4_BITS:
            raise PrefixError(
                f"cannot split /{self.length} prefix into /{new_length} subnets"
            )
        step = 1 << (IPV4_BITS - new_length)
        for index in range(1 << (new_length - self.length)):
            yield Prefix(self.network + index * step, new_length)

    def split(self, count: int = 2) -> list["Prefix"]:
        """Split into ``count`` equal more-specific prefixes (count must be a power of two)."""
        if count < 1 or count & (count - 1):
            raise PrefixError(f"split count must be a power of two, got {count}")
        extra_bits = count.bit_length() - 1
        return list(self.subnets(self.length + extra_bits))

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.network == other.network and self.length == other.length

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self.network, self.length) < (other.network, other.length)

    def __hash__(self) -> int:
        return hash((self.network, self.length))

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"
