"""The columnar RIB: observed routing tables as integer columns.

A propagation run observes the Loc-RIBs of a few vantage ASes — the
RouteViews peers and the Looking Glass ASes of paper Section 3.  This
module holds them in the one representation every later step reads:

* **value tables** — the interned prefixes, AS paths (tuples of ASNs) and
  community sets (``(asn, value)`` pairs) that observed rows reference,
  numbered in first-reference order over the rows; a set's pairs keep the
  order its producer builds its ``CommunitySet`` in, so the views rebuild
  the very same set, iterating the same way;
* **entry rows** — per observed AS (``owners``, ascending), one row per
  prefix in Loc-RIB iteration order, which is ascending prefix order:
  the prefix id, the range of its candidate rows and the position of the
  selected best candidate (``-1`` for none);
* **candidate rows** — per entry, in insertion order: path id,
  community-set id, LOCAL_PREF, neighbor kind or locality, and the AS the
  route was learned from.

ORIGIN, MED, IGP metric and router id are not stored: both propagation
engines leave them at their defaults (IGP, ``DEFAULT_MED``, 0, 0), and
lowering a route with any other value raises instead of dropping it.

Producers: :class:`~repro.simulation.fastpath.FastPropagationEngine`
writes rows straight from its per-AS states through :class:`RibWriter`;
the legacy engine lowers its ``LocRib`` objects once with
:meth:`RibColumns.from_tables`.  Consumers — the RouteViews collector, the
measurement index, the Figs. 6/7 persistence study and the propagation
codec — read the columns.  :class:`~repro.bgp.route.Route` and
:class:`~repro.bgp.rib.LocRib` objects exist only as views:
:meth:`RibColumns.table` builds one owner's ``LocRib`` on first use (for
``show ip bgp``, archives, examples and the legacy oracles) and
:meth:`RibColumns.route` one candidate.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from repro.bgp.attributes import DEFAULT_MED, Community, CommunitySet, Origin
from repro.bgp.rib import LocRib
from repro.bgp.route import NeighborKind, Route, RouteSource
from repro.exceptions import SimulationError
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

#: Candidate kind codes.  A learned route's code is the relationship of the
#: AS it came from (the fast engine's relationship codes); an originated
#: route is ``KIND_LOCAL``.
REL_CUSTOMER = 0
REL_PEER = 1
REL_PROVIDER = 2
REL_SIBLING = 3
KIND_LOCAL = 4

#: ``NeighborKind`` of each kind code (an originated route has none).
_NEIGHBOR_KINDS = (
    NeighborKind.CUSTOMER,
    NeighborKind.PEER,
    NeighborKind.PROVIDER,
    NeighborKind.SIBLING,
    NeighborKind.UNKNOWN,
)
_KIND_CODE = {kind: code for code, kind in enumerate(_NEIGHBOR_KINDS[:KIND_LOCAL])}

#: One candidate as a producer hands it over:
#: ``(path key, community key, local_pref, kind, learned_from)``.
CandidateRow = tuple[Hashable, Hashable, int, int, ASN]


@dataclass
class RibColumns:
    """Observed Loc-RIBs as integer columns over interned value tables.

    Attributes:
        prefixes: prefix table, by prefix id.
        paths: AS-path table (ASN tuples, neighbor first), by path id.
        communities: community-set table, by id: each set's ``(asn,
            value)`` pairs, in the order a ``CommunitySet`` is built from.
        owners: the observed ASes, ascending.
        owner_offsets: per owner, the start of its entry rows; one trailing
            sentinel equal to the entry count.
        entry_prefix: prefix id per entry.
        entry_offsets: per entry, the start of its candidate rows; one
            trailing sentinel equal to the candidate count.
        entry_best: per entry, the best candidate's position within the
            entry, ``-1`` when it has none.
        cand_path: path id per candidate.
        cand_communities: community-set id per candidate.
        cand_local_pref: LOCAL_PREF per candidate.
        cand_kind: kind code per candidate (``REL_*`` or ``KIND_LOCAL``).
        cand_learned_from: the AS each candidate was learned from (the
            origin itself for an originated route).
    """

    prefixes: list[Prefix]
    paths: list[tuple[ASN, ...]]
    communities: list[tuple[tuple[int, int], ...]]
    owners: tuple[ASN, ...]
    owner_offsets: array
    entry_prefix: array
    entry_offsets: array
    entry_best: array
    cand_path: array
    cand_communities: array
    cand_local_pref: array
    cand_kind: array
    cand_learned_from: array

    def __post_init__(self) -> None:
        """Index the owners; the view memos start empty."""
        self._slot = {owner: slot for slot, owner in enumerate(self.owners)}
        self._views: dict[ASN, LocRib] = {}
        self._aspaths: list[ASPath | None] = [None] * len(self.paths)
        self._sets: list[CommunitySet | None] = [None] * len(self.communities)

    # -- row access ----------------------------------------------------------

    def entries(self, owner: ASN) -> range:
        """The entry rows of one observed AS, in table order.

        Raises:
            SimulationError: if the AS was not observed.
        """
        slot = self._slot.get(owner)
        if slot is None:
            raise SimulationError(f"AS{owner} was not observed during the simulation")
        return range(self.owner_offsets[slot], self.owner_offsets[slot + 1])

    def candidates(self, entry: int) -> range:
        """The candidate rows of one entry, in insertion order."""
        return range(self.entry_offsets[entry], self.entry_offsets[entry + 1])

    def best_rows(self, owner: ASN) -> Iterator[tuple[int, int]]:
        """``(entry, best candidate row)`` of every entry with a best route."""
        offsets, best = self.entry_offsets, self.entry_best
        for entry in self.entries(owner):
            position = best[entry]
            if position >= 0:
                yield entry, offsets[entry] + position

    def community_set(self, comm_id: int) -> CommunitySet:
        """One community set as a :class:`CommunitySet`, built once per id.

        Built from the stored pairs in their order, so a set iterates (and
        :meth:`CommunitySet.from_asn` answers) the same way on a freshly
        built and on a decoded RIB.
        """
        communities = self._sets[comm_id]
        if communities is None:
            communities = self._sets[comm_id] = CommunitySet(
                Community(asn, value) for asn, value in self.communities[comm_id]
            )
        return communities

    # -- views ---------------------------------------------------------------

    def table(self, owner: ASN) -> LocRib:
        """The ``LocRib`` view of one observed AS, built on first use.

        Raises:
            SimulationError: if the AS was not observed.
        """
        view = self._views.get(owner)
        if view is None:
            view = self._views[owner] = self._build_table(owner)
        return view

    def _build_table(self, owner: ASN) -> LocRib:
        """Materialise one owner's entries; the best route is a candidate."""
        table = LocRib(owner=owner)
        prefixes, entry_prefix, best = self.prefixes, self.entry_prefix, self.entry_best
        for entry in self.entries(owner):
            prefix = prefixes[entry_prefix[entry]]
            routes = [self.route(prefix, row) for row in self.candidates(entry)]
            position = best[entry]
            table.load_entry(prefix, routes, routes[position] if position >= 0 else None)
        return table

    def route(self, prefix: Prefix, row: int) -> Route:
        """One candidate row as a :class:`Route` to ``prefix``.

        AS paths and community sets are built once per id and shared.
        """
        path_id = self.cand_path[row]
        as_path = self._aspaths[path_id]
        if as_path is None:
            as_path = self._aspaths[path_id] = ASPath(self.paths[path_id])
        return candidate_route(
            prefix,
            as_path,
            self.cand_local_pref[row],
            self.community_set(self.cand_communities[row]),
            self.cand_kind[row],
            self.cand_learned_from[row],
        )

    # -- lowering ------------------------------------------------------------

    @classmethod
    def from_tables(cls, tables: Mapping[ASN, LocRib]) -> "RibColumns":
        """Lower ``LocRib`` objects (the legacy engine's output) into columns.

        Raises:
            SimulationError: for a route the columns cannot hold — a
                non-default ORIGIN, MED, IGP metric or router id, a
                well-known community, an iBGP or unclassified route, no
                learned-from AS — or a best route that is not a candidate.
        """
        owners = sorted(tables)
        writer = RibWriter(owners, attrgetter("asns"), _pairs_of)
        for slot, owner in enumerate(owners):
            for entry in tables[owner].entries():
                best = [i for i, route in enumerate(entry.routes) if route is entry.best]
                if entry.best is not None and not best:
                    raise SimulationError(f"best route of {entry.prefix} is not a candidate")
                rows = [_lower(route) for route in entry.routes]
                writer.add(slot, entry.prefix, rows, best[0] if best else -1)
        return writer.finish()


def candidate_route(
    prefix: Prefix,
    as_path: ASPath,
    local_pref: int,
    communities: CommunitySet,
    kind: int,
    learned_from: ASN,
) -> Route:
    """One candidate as a :class:`Route`; the other attributes keep their defaults."""
    return Route(
        prefix=prefix,
        as_path=as_path,
        local_pref=local_pref,
        communities=communities,
        source=RouteSource.LOCAL if kind == KIND_LOCAL else RouteSource.EBGP,
        neighbor_kind=_NEIGHBOR_KINDS[kind],
        learned_from=learned_from,
    )


def _pairs_of(communities: CommunitySet) -> tuple[tuple[int, int], ...]:
    """A community set's value-table form: its pairs in iteration order.

    Community hashes are integer-tuple hashes, so the order is the same in
    every interpreter.
    """
    return tuple((community.asn, community.value) for community in communities.communities)


def _lower(route: Route) -> CandidateRow:
    """One route as a candidate row; refuses values the columns cannot hold."""
    for name, value, default in (
        ("ORIGIN", route.origin, Origin.IGP),
        ("MED", route.med, DEFAULT_MED),
        ("IGP metric", route.igp_metric, 0),
        ("router id", route.router_id, 0),
    ):
        if value != default:
            raise SimulationError(
                f"cannot store {route}: {name} {value} is not the default {default}"
            )
    if route.communities.well_known:
        raise SimulationError(f"cannot store {route}: it carries well-known communities")
    if route.learned_from is None:
        raise SimulationError(f"cannot store {route}: it has no learned-from AS")
    if route.source is RouteSource.LOCAL and route.neighbor_kind is NeighborKind.UNKNOWN:
        kind = KIND_LOCAL
    elif route.source is RouteSource.EBGP and route.neighbor_kind in _KIND_CODE:
        kind = _KIND_CODE[route.neighbor_kind]
    else:
        raise SimulationError(
            f"cannot store {route}: a {route.source} route from a "
            f"{route.neighbor_kind} neighbor"
        )
    return (route.as_path, route.communities, route.local_pref, kind, route.learned_from)


class RibWriter:
    """Collects entry rows per owner, then emits sorted, interned columns.

    Producers add entries in any prefix order with their own path and
    community keys; :meth:`finish` sorts each owner's entries by prefix and
    interns prefixes, paths and community sets in first-reference order
    over the final rows, resolving a key to its value on first use.  The
    same rows therefore get the same ids whichever engine wrote them.

    Args:
        owners: the observed ASes, ascending; entries name them by slot.
        path_of: path key -> ASN tuple (neighbor first).
        communities_of: community key -> ``(asn, value)`` pairs.
    """

    def __init__(
        self,
        owners: Sequence[ASN],
        path_of: Callable[[Hashable], tuple[ASN, ...]],
        communities_of: Callable[[Hashable], tuple[tuple[int, int], ...]],
    ) -> None:
        self._owners = tuple(owners)
        self._path_of = path_of
        self._communities_of = communities_of
        self._entries: list[list[tuple]] = [[] for _ in self._owners]

    def add(self, slot: int, prefix: Prefix, rows: list[CandidateRow], best: int) -> None:
        """Record one entry of owner ``slot``: its candidates and best position.

        The entry is keyed by its prefix as one integer that sorts like
        :class:`Prefix` (network, then length).
        """
        self._entries[slot].append(((prefix.network << 6) | prefix.length, prefix, rows, best))

    def finish(self) -> RibColumns:
        """The columns of every recorded entry.

        Raises:
            SimulationError: if one owner holds two entries for a prefix
                (a prefix originated by more than one AS).
        """
        prefixes: list[Prefix] = []
        prefix_ids: dict[int, int] = {}
        paths: list[tuple[ASN, ...]] = []
        path_ids: dict[Hashable, int] = {}
        communities: list[tuple[tuple[int, int], ...]] = []
        comm_ids: dict[Hashable, int] = {}
        owner_offsets = array("q", [0])
        entry_prefix, entry_offsets, entry_best = array("q"), array("q", [0]), array("q")
        cand_path, cand_comm, cand_pref = array("q"), array("q"), array("q")
        cand_kind, cand_from = array("q"), array("q")
        for owner, entries in zip(self._owners, self._entries):
            entries.sort(key=itemgetter(0))
            previous = -1
            for key, prefix, rows, best in entries:
                if key == previous:
                    raise SimulationError(
                        f"AS{owner} holds two entries for {prefix}: "
                        "a prefix has more than one origin AS"
                    )
                previous = key
                pid = prefix_ids.get(key)
                if pid is None:
                    pid = prefix_ids[key] = len(prefixes)
                    prefixes.append(prefix)
                entry_prefix.append(pid)
                entry_best.append(best)
                for path_key, comm_key, local_pref, kind, learned_from in rows:
                    path_id = path_ids.get(path_key)
                    if path_id is None:
                        path_id = path_ids[path_key] = len(paths)
                        paths.append(self._path_of(path_key))
                    comm_id = comm_ids.get(comm_key)
                    if comm_id is None:
                        comm_id = comm_ids[comm_key] = len(communities)
                        communities.append(self._communities_of(comm_key))
                    cand_path.append(path_id)
                    cand_comm.append(comm_id)
                    cand_pref.append(local_pref)
                    cand_kind.append(kind)
                    cand_from.append(learned_from)
                entry_offsets.append(len(cand_path))
            owner_offsets.append(len(entry_prefix))
        return RibColumns(
            prefixes=prefixes,
            paths=paths,
            communities=communities,
            owners=self._owners,
            owner_offsets=owner_offsets,
            entry_prefix=entry_prefix,
            entry_offsets=entry_offsets,
            entry_best=entry_best,
            cand_path=cand_path,
            cand_communities=cand_comm,
            cand_local_pref=cand_pref,
            cand_kind=cand_kind,
            cand_learned_from=cand_from,
        )
