"""The BGP AS_PATH attribute.

An :class:`ASPath` records the sequence of ASes a route announcement has
traversed, most recent first (the neighbor the route was learned from is the
first element, the origin AS is the last).  The paper's algorithms lean on
three operations implemented here:

* loop detection (a router discards routes whose AS path already contains its
  own AS number, Section 2.2.1),
* prepending (an export-policy knob for inbound traffic engineering,
  Section 2.2.2), and
* pairwise iteration over adjacent ASes (used when verifying customer paths
  in Section 5.1.3 and when inferring relationships from paths).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import ASPathError
from repro.net.asn import ASN, parse_asn


class ASPath:
    """An immutable AS_PATH (AS_SEQUENCE only, which is all the paper needs).

    Attributes are exposed read-only; all mutating operations return new
    instances, so paths can be shared freely between RIB entries.
    """

    __slots__ = ("_asns",)

    def __init__(self, asns: Iterable[ASN] = ()) -> None:
        asn_tuple = tuple(int(asn) for asn in asns)
        for asn in asn_tuple:
            if asn < 0:
                raise ASPathError(f"negative AS number in path: {asn}")
        object.__setattr__(self, "_asns", asn_tuple)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ASPath objects are immutable")

    def __copy__(self) -> "ASPath":
        return self

    def __deepcopy__(self, memo: dict) -> "ASPath":
        return self

    def __reduce__(self):
        return (ASPath, (self._asns,))

    # -- construction ----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ASPath":
        """Parse a whitespace-separated AS path string such as ``"7018 1239 701"``."""
        text = text.strip()
        if not text:
            return cls()
        return cls(parse_asn(token) for token in text.split())

    @classmethod
    def origin_only(cls, origin: ASN) -> "ASPath":
        """Return the path of a locally originated route: just the origin AS."""
        return cls((origin,))

    # -- views -----------------------------------------------------------

    @property
    def asns(self) -> tuple[ASN, ...]:
        """The AS numbers, nearest neighbor first, origin last."""
        return self._asns

    @property
    def next_hop_as(self) -> ASN:
        """The AS the route was learned from (first element)."""
        if not self._asns:
            raise ASPathError("empty AS path has no next-hop AS")
        return self._asns[0]

    @property
    def origin_as(self) -> ASN:
        """The AS that originated the route (last element)."""
        if not self._asns:
            raise ASPathError("empty AS path has no origin AS")
        return self._asns[-1]

    def contains(self, asn: ASN) -> bool:
        """Return ``True`` if the AS appears anywhere in the path."""
        return asn in self._asns

    def has_loop_for(self, asn: ASN) -> bool:
        """Return ``True`` if accepting this path at ``asn`` would create a loop."""
        return self.contains(asn)

    def deduplicate(self) -> "ASPath":
        """Collapse consecutive repetitions (undo prepending)."""
        collapsed: list[ASN] = []
        for asn in self._asns:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        return ASPath(collapsed)

    # -- operations -------------------------------------------------------

    @classmethod
    def _from_validated(cls, asns: tuple[ASN, ...]) -> "ASPath":
        """Internal fast path: build from an already-validated tuple."""
        path = cls.__new__(cls)
        object.__setattr__(path, "_asns", asns)
        return path

    def prepend(self, asn: ASN, count: int = 1) -> "ASPath":
        """Return a new path with ``asn`` prepended ``count`` times."""
        if count < 1:
            raise ASPathError(f"prepend count must be positive, got {count}")
        if asn < 0:
            raise ASPathError(f"negative AS number in path: {asn}")
        return ASPath._from_validated((asn,) * count + self._asns)

    def startswith(self, other: "ASPath" | Sequence[ASN]) -> bool:
        """Return ``True`` if this path begins with the given AS sequence."""
        other_asns = other.asns if isinstance(other, ASPath) else tuple(other)
        return self._asns[: len(other_asns)] == tuple(other_asns)

    # -- dunder -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._asns)

    def __iter__(self) -> Iterator[ASN]:
        return iter(self._asns)

    def __getitem__(self, index: int) -> ASN:
        return self._asns[index]

    def __bool__(self) -> bool:
        return bool(self._asns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPath):
            return NotImplemented
        return self._asns == other._asns

    def __hash__(self) -> int:
        return hash(self._asns)

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self._asns)

    def __repr__(self) -> str:
        return f"ASPath({str(self)!r})"
