"""The Loc-RIB: a routing table after best-route selection.

The paper's inference pipeline consumes *routing tables* — per-prefix best
routes (a Loc-RIB) for RouteViews-style data and, for Looking Glass data,
tables that also expose alternative routes, LOCAL_PREF and communities.
This container models both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.bgp.decision import DecisionProcess
from repro.bgp.route import Route
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie


@dataclass
class RibEntry:
    """All routes known for one prefix, plus the selected best route."""

    prefix: Prefix
    routes: list[Route] = field(default_factory=list)
    best: Route | None = None

    def alternatives(self) -> list[Route]:
        """Routes other than the best one."""
        return [route for route in self.routes if route is not self.best]


class LocRib:
    """The per-AS (or per-router) routing table after best-route selection.

    The table keeps every candidate route per prefix along with the selected
    best route, because the export-policy inference needs to ask both "what
    is the best route to this prefix?" and "does a customer route to this
    prefix exist at all?".
    """

    def __init__(self, owner: ASN, decision: DecisionProcess | None = None) -> None:
        self.owner = owner
        self.decision = decision or DecisionProcess()
        self._entries: PrefixTrie[RibEntry] = PrefixTrie()

    # -- mutation --------------------------------------------------------------

    def add_route(self, route: Route) -> RibEntry:
        """Insert a candidate route and re-run best-route selection for its prefix."""
        entry = self._entries.get(route.prefix)
        if entry is None:
            entry = RibEntry(prefix=route.prefix)
            self._entries.insert(route.prefix, entry)
        # A neighbor announces at most one route per prefix: replace any
        # previous announcement from the same neighbor and router.
        entry.routes = [
            existing
            for existing in entry.routes
            if not (
                existing.next_hop_as == route.next_hop_as
                and existing.router_id == route.router_id
                and existing.source == route.source
            )
        ]
        entry.routes.append(route)
        entry.best = self.decision.select_best(entry.routes)
        return entry

    def load_entry(self, prefix: Prefix, routes: list[Route], best: Route | None) -> RibEntry:
        """Install a fully-selected entry for a prefix the table lacks.

        Bulk-loading path of the columnar RIB's views, whose rows record a
        decision an engine already made: the caller guarantees ``best`` is
        what :meth:`DecisionProcess.select_best` would pick over ``routes``
        (in order) and that the routes come from distinct (neighbor,
        router, source) triples.
        """
        entry = RibEntry(prefix=prefix, routes=list(routes), best=best)
        self._entries.insert(prefix, entry)
        return entry

    # -- queries --------------------------------------------------------------------

    def entry(self, prefix: Prefix) -> RibEntry | None:
        """Return the entry for exactly ``prefix``."""
        return self._entries.get(prefix)

    def best_route(self, prefix: Prefix) -> Route | None:
        """Return the selected best route for exactly ``prefix``."""
        entry = self._entries.get(prefix)
        return entry.best if entry else None

    def all_routes(self, prefix: Prefix) -> list[Route]:
        """Return every candidate route for exactly ``prefix``."""
        entry = self._entries.get(prefix)
        return list(entry.routes) if entry else []

    def prefixes(self) -> Iterator[Prefix]:
        """Iterate over every prefix with at least one route."""
        return iter(self._entries)

    def entries(self) -> Iterator[RibEntry]:
        """Iterate over every RIB entry."""
        for _, entry in self._entries.items():
            yield entry

    def best_routes(self) -> Iterator[Route]:
        """Iterate over the best route of every prefix."""
        for entry in self.entries():
            if entry.best is not None:
                yield entry.best

    def neighbors(self) -> set[ASN]:
        """Return every next-hop AS appearing in the table."""
        found: set[ASN] = set()
        for entry in self.entries():
            for route in entry.routes:
                if route.next_hop_as != self.owner:
                    found.add(route.next_hop_as)
        return found

    def prefixes_originated_by(self, asn: ASN) -> list[Prefix]:
        """Return every prefix whose best route is originated by ``asn``."""
        return [
            entry.prefix
            for entry in self.entries()
            if entry.best is not None and entry.best.origin_as == asn
        ]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: object) -> bool:
        return prefix in self._entries

    def __repr__(self) -> str:
        return f"LocRib(owner=AS{self.owner}, prefixes={len(self)})"
