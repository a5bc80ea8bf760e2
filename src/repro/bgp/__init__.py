"""BGP substrate: route attributes, routes, RIBs and the decision process.

This subpackage implements the pieces of BGP the paper's methodology relies
on (Section 2.2):

* :mod:`repro.bgp.attributes` — ORIGIN, MED, LOCAL_PREF and the community
  attribute, including the well-known NO_EXPORT / NO_ADVERTISE values used
  by the selective-announcement analysis.
* :mod:`repro.bgp.route` — a route announcement with its attribute set and
  the relationship classification (customer/peer/provider route).
* :mod:`repro.bgp.rib` — the Loc-RIB container.
* :mod:`repro.bgp.decision` — the sequential decision process of
  Section 2.2.1 (local preference first, then AS-path length, origin, MED,
  eBGP-over-iBGP, IGP metric, router ID).

Routing policies themselves are not modelled as router configuration:
:mod:`repro.simulation.policies` assigns each AS its LOCAL_PREF scheme and
export behaviour, the way the paper infers them from observable tables.
"""

from repro.bgp.attributes import (
    Community,
    CommunitySet,
    Origin,
    WellKnownCommunity,
)
from repro.bgp.route import NeighborKind, Route, RouteSource
from repro.bgp.rib import LocRib, RibEntry
from repro.bgp.decision import DecisionProcess, DecisionStep

__all__ = [
    "Community",
    "CommunitySet",
    "DecisionProcess",
    "DecisionStep",
    "LocRib",
    "NeighborKind",
    "Origin",
    "RibEntry",
    "Route",
    "RouteSource",
    "WellKnownCommunity",
]
