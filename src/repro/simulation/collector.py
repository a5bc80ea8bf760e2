"""Vantage points: RouteViews-style collectors and Looking Glass views.

The paper combines two kinds of vantage points (Section 3):

* the **Oregon RouteViews** collector, which peers with 56 ASes and records
  each peer's best routes (AS paths only — no LOCAL_PREF), and
* **Looking Glass servers** at 15 ASes, where fine-grained information —
  LOCAL_PREF and communities — is visible, and where one AS's table can be
  inspected from several backbone routers (the AT&T view of Fig. 2b).

:class:`RouteViewsCollector` and :class:`LookingGlass` reproduce those two
data granularities on top of a :class:`~repro.simulation.propagation.SimulationResult`:
the collector reads the best rows of the run's columnar RIB, and a glass
built from a result materialises its ``LocRib`` view only when asked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.bgp.rib import LocRib
from repro.bgp.route import Route
from repro.exceptions import SimulationError
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.propagation import SimulationResult
from repro.simulation.rib import KIND_LOCAL


@dataclass(frozen=True)
class CollectorEntry:
    """One row of a collector table: a peer's best route to a prefix."""

    vantage: ASN
    prefix: Prefix
    as_path: ASPath

    @property
    def origin_as(self) -> ASN:
        """The AS originating the prefix."""
        return self.as_path.origin_as


@dataclass
class CollectorTable:
    """The merged table of a RouteViews-style collector.

    Attributes:
        entries: one entry per (vantage AS, prefix) pair.
    """

    entries: list[CollectorEntry] = field(default_factory=list)

    def all_paths(self) -> list[ASPath]:
        """Every AS path in the table (the input to relationship inference)."""
        return [entry.as_path for entry in self.entries]

    def vantages(self) -> list[ASN]:
        """The peer ASes contributing to the table."""
        return sorted({entry.vantage for entry in self.entries})

    def prefixes(self) -> list[Prefix]:
        """Every prefix appearing in the table."""
        return sorted({entry.prefix for entry in self.entries})

    def entries_for_prefix(self, prefix: Prefix) -> list[CollectorEntry]:
        """Every vantage's entry for one prefix."""
        return [entry for entry in self.entries if entry.prefix == prefix]

    def paths_containing(self, asn: ASN) -> Iterator[ASPath]:
        """Every path in which ``asn`` appears (used by path-activeness checks)."""
        for entry in self.entries:
            if entry.as_path.contains(asn):
                yield entry.as_path

    def __len__(self) -> int:
        return len(self.entries)


class RouteViewsCollector:
    """Builds a :class:`CollectorTable` from a simulation result.

    The collector "peers" with the given vantage ASes: for every prefix in a
    vantage's table, the vantage's best route is recorded with the vantage AS
    prepended (exactly what a route announced to the collector would carry).
    """

    def __init__(self, vantage_ases: list[ASN]) -> None:
        if not vantage_ases:
            raise SimulationError("a collector needs at least one vantage AS")
        self.vantage_ases = sorted(set(vantage_ases))

    def collect(self, result: SimulationResult) -> CollectorTable:
        """Assemble the collector table from the observed vantage tables.

        Reads each vantage's best rows in table order; a vantage's own
        prefix keeps its one-AS path.
        """
        rib = result.rib
        prefixes, entry_prefix = rib.prefixes, rib.entry_prefix
        paths, cand_path, kinds = rib.paths, rib.cand_path, rib.cand_kind
        table = CollectorTable()
        append = table.entries.append
        for vantage in self.vantage_ases:
            announced: dict[int, ASPath] = {}
            for entry, row in rib.best_rows(vantage):
                path_id = cand_path[row]
                as_path = announced.get(path_id)
                if as_path is None:
                    path = paths[path_id]
                    if kinds[row] != KIND_LOCAL or path[-1] != vantage:
                        path = (vantage, *path)
                    as_path = announced[path_id] = ASPath._from_validated(path)
                append(CollectorEntry(vantage, prefixes[entry_prefix[entry]], as_path))
        return table


class LookingGlass:
    """Fine-grained view of one AS's routing table.

    Exposes the full Loc-RIB (all candidate routes, LOCAL_PREF, communities)
    the way a ``show ip bgp`` session on the AS's router would, plus
    synthetic per-router views used by the Fig. 2(b) consistency study.
    """

    def __init__(self, asn: ASN, table: LocRib) -> None:
        self.asn = asn
        self._table: LocRib | None = table
        self._result: SimulationResult | None = None

    @classmethod
    def from_result(cls, result: SimulationResult, asn: ASN) -> "LookingGlass":
        """The Looking Glass of an observed AS; its table is resolved lazily.

        Raises:
            SimulationError: if the AS was not observed.
        """
        result.rib.entries(asn)  # raises for an unobserved AS
        glass = cls(asn, None)
        glass._result = result
        return glass

    @property
    def table(self) -> LocRib:
        """The glass's Loc-RIB: for a glass over a result, the result's view."""
        if self._table is None:
            self._table = self._result.table_of(self.asn)
        return self._table

    # -- queries mirroring the paper's usage -----------------------------------

    def best_routes(self) -> list[Route]:
        """The best route of every prefix."""
        return list(self.table.best_routes())

    def neighbors(self) -> list[ASN]:
        """Every next-hop AS present in the table."""
        return sorted(self.table.neighbors())

    def prefix_count_by_neighbor(self) -> dict[ASN, int]:
        """Number of prefixes announced by each next-hop AS (all candidate routes).

        This is the quantity plotted in the Appendix's Fig. 9 and used to
        infer community semantics.
        """
        counts: dict[ASN, int] = {}
        for entry in self.table.entries():
            for route in entry.routes:
                if route.is_local:
                    continue
                counts[route.next_hop_as] = counts.get(route.next_hop_as, 0) + 1
        return counts

    # -- multi-router views (Fig. 2b) ----------------------------------------------

    def router_views(
        self,
        router_count: int,
        per_prefix_override_fraction: float = 0.05,
        seed: int = 7,
    ) -> list[LocRib]:
        """Synthesize per-router tables of this AS.

        Real backbone routers of one AS mostly share the AS-wide policy but
        occasionally carry router-local, per-prefix LOCAL_PREF tweaks.  Each
        synthetic router view copies the AS table and rewrites the LOCAL_PREF
        of a small random fraction of prefixes, reproducing the "mostly but
        not entirely next-hop-consistent" picture of Fig. 2(b).
        """
        if router_count < 1:
            raise SimulationError("router_count must be at least 1")
        if not (0.0 <= per_prefix_override_fraction <= 1.0):
            raise SimulationError("per_prefix_override_fraction must be a probability")
        rng = random.Random(seed)
        views: list[LocRib] = []
        best_routes = list(self.table.best_routes())
        for router_id in range(1, router_count + 1):
            view = LocRib(owner=self.asn)
            for route in best_routes:
                if rng.random() < per_prefix_override_fraction:
                    tweaked = route.replace(
                        local_pref=rng.choice([80, 85, 95, 115, 120]),
                        router_id=router_id,
                    )
                else:
                    tweaked = route.replace(router_id=router_id)
                view.add_route(tweaked)
            views.append(view)
        return views
