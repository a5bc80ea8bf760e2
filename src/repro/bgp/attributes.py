"""BGP path attributes used by the paper's analyses.

Only the attributes the methodology actually touches are modelled:

* ``ORIGIN`` — used at step 3 of the decision process.
* ``LOCAL_PREF`` — the attribute whose assignment the import-policy study
  (Section 4) infers.
* ``MED`` — used at step 4 of the decision process.
* the community attribute — used for relationship tagging (Appendix,
  Table 11) and for "do not announce to X" traffic engineering
  (Section 5.1.5, Case 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.exceptions import PolicyError
from repro.net.asn import ASN, MAX_ASN16

#: Default LOCAL_PREF value applied by routers when no policy sets one.
DEFAULT_LOCAL_PREF = 100

#: Default MED when the attribute is absent.
DEFAULT_MED = 0


class Origin(enum.IntEnum):
    """The ORIGIN attribute; lower values are preferred (decision step 3)."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class WellKnownCommunity(enum.IntEnum):
    """Well-known community values from RFC 1997."""

    NO_EXPORT = 0xFFFFFF01
    NO_ADVERTISE = 0xFFFFFF02
    NO_EXPORT_SUBCONFED = 0xFFFFFF03


@dataclass(frozen=True, order=True)
class Community:
    """A ``asn:value`` BGP community, e.g. ``12859:1000``.

    Attributes:
        asn: the AS that defined the community semantics.
        value: the AS-local value.
    """

    asn: ASN
    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.asn <= MAX_ASN16):
            raise PolicyError(f"community AS part out of range: {self.asn}")
        if not (0 <= self.value <= MAX_ASN16):
            raise PolicyError(f"community value part out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "Community":
        """Parse ``"asn:value"`` notation."""
        asn_text, sep, value_text = text.strip().partition(":")
        if not sep or not asn_text.isdigit() or not value_text.isdigit():
            raise PolicyError(f"invalid community: {text!r}")
        return cls(int(asn_text), int(value_text))

    @classmethod
    def from_int(cls, value: int) -> "Community":
        """Build a community from its 32-bit wire value."""
        if not (0 <= value <= 0xFFFFFFFF):
            raise PolicyError(f"community wire value out of range: {value}")
        return cls(value >> 16, value & MAX_ASN16)

    def to_int(self) -> int:
        """Return the 32-bit wire value."""
        return (self.asn << 16) | self.value

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


class CommunitySet:
    """An immutable set of communities attached to a route.

    Well-known communities may be added either as :class:`WellKnownCommunity`
    members or as their 32-bit values.
    """

    __slots__ = ("_communities", "_well_known")

    def __init__(
        self,
        communities: Iterable[Community | str] = (),
        well_known: Iterable[WellKnownCommunity | int] = (),
    ) -> None:
        parsed = frozenset(
            Community.parse(item) if isinstance(item, str) else item
            for item in communities
        )
        known = frozenset(WellKnownCommunity(item) for item in well_known)
        object.__setattr__(self, "_communities", parsed)
        object.__setattr__(self, "_well_known", known)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CommunitySet objects are immutable")

    def __copy__(self) -> "CommunitySet":
        return self

    def __deepcopy__(self, memo: dict) -> "CommunitySet":
        return self

    def __reduce__(self):
        return (CommunitySet, (tuple(self._communities), tuple(self._well_known)))

    # -- queries -----------------------------------------------------------

    @property
    def communities(self) -> frozenset[Community]:
        """The regular ``asn:value`` communities."""
        return self._communities

    @property
    def well_known(self) -> frozenset[WellKnownCommunity]:
        """The well-known communities present on the route."""
        return self._well_known

    def has(self, community: Community | str) -> bool:
        """Return ``True`` if the given regular community is attached."""
        if isinstance(community, str):
            community = Community.parse(community)
        return community in self._communities

    def from_asn(self, asn: ASN) -> frozenset[Community]:
        """Return the communities whose AS part is ``asn``."""
        return frozenset(c for c in self._communities if c.asn == asn)

    # -- derivation ----------------------------------------------------------

    def add(self, *communities: Community | str | WellKnownCommunity) -> "CommunitySet":
        """Return a new set with the given communities added."""
        regular = set(self._communities)
        known = set(self._well_known)
        for item in communities:
            if isinstance(item, WellKnownCommunity):
                known.add(item)
            elif isinstance(item, str):
                regular.add(Community.parse(item))
            else:
                regular.add(item)
        return CommunitySet(regular, known)

    def remove(self, *communities: Community | str | WellKnownCommunity) -> "CommunitySet":
        """Return a new set with the given communities removed (if present)."""
        regular = set(self._communities)
        known = set(self._well_known)
        for item in communities:
            if isinstance(item, WellKnownCommunity):
                known.discard(item)
            else:
                if isinstance(item, str):
                    item = Community.parse(item)
                regular.discard(item)
        return CommunitySet(regular, known)

    # -- dunder ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Community]:
        return iter(sorted(self._communities))

    def __len__(self) -> int:
        return len(self._communities) + len(self._well_known)

    def __bool__(self) -> bool:
        return bool(self._communities or self._well_known)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunitySet):
            return NotImplemented
        return (
            self._communities == other._communities
            and self._well_known == other._well_known
        )

    def __hash__(self) -> int:
        return hash((self._communities, self._well_known))

    def __str__(self) -> str:
        parts = [str(c) for c in sorted(self._communities)]
        parts.extend(name.name for name in sorted(self._well_known, key=int))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"CommunitySet({str(self)!r})"


#: An empty, shared community set — routes without communities reference this.
EMPTY_COMMUNITIES = CommunitySet()
