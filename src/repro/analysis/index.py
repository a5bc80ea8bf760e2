"""The compiled measurement index: the observations as columnar arrays.

The paper's analyses (Tables 2-11, Figs. 2-9) are repeated scans over the
same three observed artifacts — the RouteViews-style collector table, the
Looking Glass tables and the IRR database — sliced per AS, per prefix and
per neighbor.  The legacy :mod:`repro.core` analyzers re-walk the Python
object graph (``CollectorTable`` entries, ``LocRib`` tries, ``Route``
dataclasses) once per analysis, which makes the analyzer pass the dominant
wall-clock cost once propagation itself is fast.

:class:`MeasurementIndex` lowers them *once* into dense columns keyed by
integer ids, read straight from the propagation stage's columnar RIB
(:class:`~repro.simulation.rib.RibColumns`); no ``CollectorEntry``,
``Route`` or ``LocRib`` object is built.  Prefix ids are the RIB's:

* **Collector paths** — ASN tuples with ids in first-sight row order, each
  with its collapsed (deduplicated) tuple and origin AS.  They are interned
  per ``(vantage, RIB path id)``, which names one path: the RIB holds each
  tuple once, and no vantage is in a path it learned.
* **Collector columns** — one row per
  :func:`~repro.simulation.collector.collector_rows` row, in row order:
  ``(vantage, prefix id, path id)`` plus inverted groupings by prefix and by
  path member AS, and the observed adjacency set (consecutive AS pairs).
* **Looking Glass columns** — per glass, one row per candidate route in
  table-iteration order: next-hop AS, LOCAL_PREF, locality, and the glass's
  own community tags, plus per-entry offsets and best-route columns.
* **Table columns** — per observed AS, the best-route rows (prefix id,
  origin, next hop, locality, the RIB candidate row) in table order.
* **IRR rows** — per registered object: AS, last-update stamp and the
  ``(peer AS, pref)`` import pairs.

The index holds references to the source artifacts (graph, RIB, IRR) so
engine queries can reach them — a report's best route is materialised from
its RIB row with :meth:`~repro.simulation.rib.RibColumns.route` — but every
hot loop in :class:`~repro.analysis.engine.AnalysisEngine` runs over the
integer columns.  Build it with ``MeasurementIndex(dataset)`` or through the
session layer's ``ANALYSIS`` stage, a derived in-memory stage: rebuilding
the index from the stored upstream stages costs no more than decoding it
would.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.collector import collector_rows
from repro.simulation.rib import KIND_LOCAL, RibColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bgp.attributes import Community
    from repro.data.dataset import StudyDataset


@dataclass
class GlassIndex:
    """Columnar view of one Looking Glass table.

    Route rows follow the RIB's row order, which is the iteration order of
    the legacy analyzers (``for entry in table.entries(): for route in
    entry.routes``), so one-pass queries reproduce legacy tie-breaking
    (e.g. ``Counter`` insertion order) bit for bit.

    Attributes:
        asn: the Looking Glass AS.
        entry_prefix: RIB prefix id per entry, in table-iteration order.
        entry_offsets: per entry, the start offset into the route columns;
            one trailing sentinel equal to the route-row count.
        route_next_hop: next-hop AS per candidate route row.
        route_local_pref: LOCAL_PREF per candidate route row.
        route_is_local: 1 for locally-originated route rows, else 0.
        route_own_communities: the glass AS's own community tags per route
            row, in the order ``CommunitySet.from_asn`` yields them.
        best_next_hop: next-hop AS per best route, in best-route order.
        best_local_pref: LOCAL_PREF per best route.
        best_is_local: 1 for locally-originated best routes, else 0.
    """

    asn: ASN
    entry_prefix: array = field(default_factory=lambda: array("q"))
    entry_offsets: array = field(default_factory=lambda: array("q"))
    route_next_hop: array = field(default_factory=lambda: array("q"))
    route_local_pref: array = field(default_factory=lambda: array("q"))
    route_is_local: bytearray = field(default_factory=bytearray)
    route_own_communities: list[tuple["Community", ...]] = field(default_factory=list)
    best_next_hop: array = field(default_factory=lambda: array("q"))
    best_local_pref: array = field(default_factory=lambda: array("q"))
    best_is_local: bytearray = field(default_factory=bytearray)

    @property
    def entry_count(self) -> int:
        """Number of RIB entries (prefixes) in the table."""
        return len(self.entry_prefix)

    @property
    def route_count(self) -> int:
        """Number of candidate route rows in the table."""
        return len(self.route_next_hop)


@dataclass
class TableIndex:
    """Columnar best-route view of one observed AS's routing table.

    Attributes:
        owner: the table's AS.
        best_prefix: RIB prefix id per best route, in table-iteration order.
        best_origin: origin AS per best route.
        best_next_hop: next-hop AS per best route.
        best_is_local: 1 for locally-originated best routes, else 0.
        best_route: the RIB candidate row of each best route
            (:meth:`~repro.simulation.rib.RibColumns.route` materialises it).
        row_of_prefix: prefix id → row index into the best-route columns.
    """

    owner: ASN
    best_prefix: array = field(default_factory=lambda: array("q"))
    best_origin: array = field(default_factory=lambda: array("q"))
    best_next_hop: array = field(default_factory=lambda: array("q"))
    best_is_local: bytearray = field(default_factory=bytearray)
    best_route: array = field(default_factory=lambda: array("q"))
    row_of_prefix: dict[int, int] = field(default_factory=dict)

    @property
    def best_count(self) -> int:
        """Number of best-route rows."""
        return len(self.best_prefix)

    @classmethod
    def from_rib(cls, rib: RibColumns, owner: ASN) -> "TableIndex":
        """The best-route columns of one observed AS of ``rib``, in table order.

        Prefix ids are ``rib``'s.

        Raises:
            SimulationError: if the AS was not observed.
        """
        view = cls(owner=owner)
        paths, cand_path = rib.paths, rib.cand_path
        hops, kinds = rib.cand_learned_from, rib.cand_kind
        for entry, row in rib.best_rows(owner):
            pid = rib.entry_prefix[entry]
            view.row_of_prefix[pid] = len(view.best_prefix)
            view.best_prefix.append(pid)
            view.best_origin.append(paths[cand_path[row]][-1])
            view.best_next_hop.append(hops[row])
            view.best_is_local.append(kinds[row] == KIND_LOCAL)
            view.best_route.append(row)
        return view


@dataclass
class IrrRow:
    """One IRR aut-num object lowered to plain tuples.

    Attributes:
        asn: the registered AS.
        last_updated: the object's ``changed:`` date stamp.
        imports: ``(peer AS, RPSL pref or None)`` per import line, in line
            order.
    """

    asn: ASN
    last_updated: str
    imports: tuple[tuple[ASN, int | None], ...]


class MeasurementIndex:
    """The compiled, shared index over one study's observation artifacts.

    Build once per dataset (the session layer's ``ANALYSIS`` stage caches
    it), query many times through
    :class:`~repro.analysis.engine.AnalysisEngine`.
    """

    def __init__(self, dataset: "StudyDataset") -> None:
        """Lower a study dataset's observations into columns.

        Args:
            dataset: the assembled study dataset (flat view); the index
                keeps references to its graph, RIB and IRR.
        """
        self.dataset = dataset
        self.graph = dataset.ground_truth_graph
        self.internet = dataset.internet
        self.rib = dataset.result.rib
        self.assignment = dataset.assignment
        self.irr = dataset.irr
        self.looking_glass_ases = list(dataset.looking_glass_ases)
        self.vantage_ases = list(dataset.vantage_ases)

        # -- prefixes (the RIB's) and collector paths -----------------------
        self.prefixes: list[Prefix] = self.rib.prefixes
        self.prefix_ids: dict[Prefix, int] = {p: pid for pid, p in enumerate(self.prefixes)}
        self.paths: list[tuple[ASN, ...]] = []
        self.collapsed: list[tuple[ASN, ...]] = []
        self.path_origin: array = array("q")

        # -- collector columns ----------------------------------------------
        self.col_vantage: array = array("q")
        self.col_prefix: array = array("q")
        self.col_path: array = array("q")
        self.rows_by_prefix: dict[int, list[int]] = {}
        self.rows_by_member: dict[ASN, list[int]] = {}
        self.adjacency: set[tuple[ASN, ASN]] = set()

        # -- per-source views -----------------------------------------------
        self.glasses: dict[ASN, GlassIndex] = {}
        self.tables: dict[ASN, TableIndex] = {}
        self.irr_rows: list[IrrRow] = []

        self._build_collector()
        self._build_glasses()
        self._build_tables()
        self._build_irr()

    # -- builders ------------------------------------------------------------

    def _build_collector(self) -> None:
        """Lower the collector rows: columns, groupings, adjacency.

        Each RIB path is collapsed once, then the vantage prepended.
        """
        rib_paths = self.rib.paths
        pair_ids: dict[tuple[ASN, int], int] = {}
        collapsed_rib: dict[int, tuple[ASN, ...]] = {}
        rows = collector_rows(self.rib, self.vantage_ases)
        for row, (vantage, pid, rib_path_id, prepended) in enumerate(rows):
            path_id = pair_ids.get((vantage, rib_path_id))
            if path_id is None:
                path_id = pair_ids[vantage, rib_path_id] = len(self.paths)
                path = rib_paths[rib_path_id]
                collapsed = collapsed_rib.get(rib_path_id)
                if collapsed is None:
                    collapsed = collapsed_rib[rib_path_id] = (
                        ASPath._from_validated(path).deduplicate().asns
                    )
                if prepended:
                    path, collapsed = (vantage, *path), (vantage, *collapsed)
                self.paths.append(path)
                self.collapsed.append(collapsed)
                self.path_origin.append(path[-1])
                self.adjacency.update(zip(collapsed, collapsed[1:]))
            self.col_vantage.append(vantage)
            self.col_prefix.append(pid)
            self.col_path.append(path_id)
            self.rows_by_prefix.setdefault(pid, []).append(row)
            for asn in sorted(set(self.collapsed[path_id])):
                self.rows_by_member.setdefault(asn, []).append(row)

    def _build_glasses(self) -> None:
        """Copy every Looking Glass's RIB rows into route/entry/best columns."""
        rib = self.rib
        offsets, best = rib.entry_offsets, rib.entry_best
        hops, prefs = rib.cand_learned_from, rib.cand_local_pref
        kinds, comms = rib.cand_kind, rib.cand_communities
        for asn in self.looking_glass_ases:
            view = GlassIndex(asn=asn)
            own: dict[int, tuple[Community, ...]] = {}
            for entry in rib.entries(asn):
                view.entry_prefix.append(rib.entry_prefix[entry])
                start, end = offsets[entry], offsets[entry + 1]
                view.entry_offsets.append(len(view.route_next_hop))
                view.route_next_hop.extend(hops[start:end])
                view.route_local_pref.extend(prefs[start:end])
                for row in range(start, end):
                    view.route_is_local.append(kinds[row] == KIND_LOCAL)
                    comm_id = comms[row]
                    tags = own.get(comm_id)
                    if tags is None:
                        tags = own[comm_id] = tuple(rib.community_set(comm_id).from_asn(asn))
                    view.route_own_communities.append(tags)
                if best[entry] >= 0:
                    row = start + best[entry]
                    view.best_next_hop.append(hops[row])
                    view.best_local_pref.append(prefs[row])
                    view.best_is_local.append(kinds[row] == KIND_LOCAL)
            view.entry_offsets.append(len(view.route_next_hop))
            self.glasses[asn] = view

    def _build_tables(self) -> None:
        """The best-route columns of every observed AS's routing table."""
        for asn in self.rib.owners:
            self.tables[asn] = TableIndex.from_rib(self.rib, asn)

    def _build_irr(self) -> None:
        """Lower the IRR database into plain ``(peer, pref)`` rows."""
        for obj in self.irr:
            self.irr_rows.append(
                IrrRow(
                    asn=obj.asn,
                    last_updated=obj.last_updated,
                    imports=tuple((line.peer_as, line.pref) for line in obj.imports),
                )
            )

    # -- conveniences --------------------------------------------------------

    def tagging_asns(self) -> list[ASN]:
        """Looking Glass ASes that tag routes with relationship communities."""
        return [
            asn
            for asn in self.looking_glass_ases
            if self.assignment.policies[asn].community_plan is not None
        ]

    def stats(self) -> dict[str, int]:
        """Size counters of the compiled index (for the CLI and tests)."""
        return {
            "collector_rows": len(self.col_vantage),
            "interned_prefixes": len(self.prefixes),
            "interned_paths": len(self.paths),
            "adjacency_pairs": len(self.adjacency),
            "looking_glasses": len(self.glasses),
            "glass_route_rows": sum(g.route_count for g in self.glasses.values()),
            "observed_tables": len(self.tables),
            "table_best_rows": sum(t.best_count for t in self.tables.values()),
            "irr_objects": len(self.irr_rows),
        }
