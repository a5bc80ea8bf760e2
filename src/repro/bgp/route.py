"""Route announcements and the customer/peer/provider route classification.

The paper defines (Section 2.2.1):

    "we define a route received from a customer as *customer route*, and the
    AS path the route traversed as *customer path*; a route received from a
    provider as *provider route* ...; a route received from a peer as
    *peer route* ..."

:class:`Route` carries a prefix, the attribute set, bookkeeping about where
the route was learned (which neighbor AS, eBGP vs. iBGP, which ingress
router) and — once the receiving AS knows its relationship with that
neighbor — a :class:`NeighborKind` classification.  Routes are immutable;
policy application produces modified copies via :meth:`Route.replace`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

from repro.bgp.attributes import (
    DEFAULT_LOCAL_PREF,
    DEFAULT_MED,
    EMPTY_COMMUNITIES,
    CommunitySet,
    Origin,
)
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


class NeighborKind(enum.Enum):
    """The business relationship between an AS and the neighbor a route came from."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"
    SIBLING = "sibling"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class RouteSource(enum.Enum):
    """How the route entered the router."""

    EBGP = "ebgp"
    IBGP = "ibgp"
    LOCAL = "local"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Route:
    """One BGP route to a prefix as seen by a particular AS (or router).

    Attributes:
        prefix: the destination prefix.
        as_path: the AS_PATH; ``as_path.origin_as`` is the originating AS and
            ``as_path.next_hop_as`` the neighbor AS the route was learned
            from (for non-local routes).
        local_pref: LOCAL_PREF assigned by the receiving AS's import policy.
        origin: the ORIGIN attribute.
        med: the MULTI_EXIT_DISC attribute.
        communities: communities attached to the route.
        source: eBGP / iBGP / locally originated.
        neighbor_kind: relationship with the neighbor the route was learned
            from, if known.
        learned_from: the neighbor AS the route was received from; equals
            ``as_path.next_hop_as`` for eBGP routes but is kept explicit so
            iBGP-reflected and locally originated routes stay well-defined.
        igp_metric: IGP distance to the egress router (decision step 6).
        router_id: identifier of the announcing router (decision step 7).
    """

    prefix: Prefix
    as_path: ASPath
    local_pref: int = DEFAULT_LOCAL_PREF
    origin: Origin = Origin.IGP
    med: int = DEFAULT_MED
    communities: CommunitySet = field(default=EMPTY_COMMUNITIES)
    source: RouteSource = RouteSource.EBGP
    neighbor_kind: NeighborKind = NeighborKind.UNKNOWN
    learned_from: ASN | None = None
    igp_metric: int = 0
    router_id: int = 0

    def __post_init__(self) -> None:
        if self.learned_from is None and self.as_path:
            object.__setattr__(self, "learned_from", self.as_path.next_hop_as)

    @property
    def origin_as(self) -> ASN:
        """The AS that originated the prefix."""
        return self.as_path.origin_as

    @property
    def next_hop_as(self) -> ASN:
        """The neighbor AS the route was learned from."""
        if self.learned_from is not None:
            return self.learned_from
        return self.as_path.next_hop_as

    @property
    def is_local(self) -> bool:
        """``True`` for locally originated routes."""
        return self.source is RouteSource.LOCAL

    @property
    def export_signature(self) -> tuple:
        """The attributes a neighbor can observe about this route.

        Two best routes with equal signatures are indistinguishable on the
        wire, so replacing one with the other requires no re-announcement.
        The signature covers AS_PATH, communities, LOCAL_PREF, MED and ORIGIN
        — every attribute that either propagates to the neighbor or feeds the
        local decision process at the same step for both routes.
        """
        return (self.as_path, self.communities, self.local_pref, self.med, self.origin)

    # -- derivation ----------------------------------------------------------

    def replace(self, **changes: Any) -> "Route":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def with_communities(self, communities: CommunitySet) -> "Route":
        """Return a copy with the community set replaced."""
        return self.replace(communities=communities)

    def __str__(self) -> str:
        return (
            f"{self.prefix} via {self.as_path} "
            f"(lp={self.local_pref}, {self.neighbor_kind})"
        )


def originate(
    prefix: Prefix,
    origin_as: ASN,
    communities: CommunitySet = EMPTY_COMMUNITIES,
) -> Route:
    """Create the locally originated route an AS injects for one of its prefixes."""
    return Route(
        prefix=prefix,
        as_path=ASPath.origin_only(origin_as),
        source=RouteSource.LOCAL,
        communities=communities,
        learned_from=origin_as,
        origin=Origin.IGP,
    )
