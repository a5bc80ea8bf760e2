"""The compiled measurement index: the collector rows as columnar arrays.

The paper's analyses (Tables 2-11, Figs. 2-9) are repeated scans over the
same three observed artifacts — the RouteViews-style collector table, the
Looking Glass tables and the IRR database — sliced per AS, per prefix and
per neighbor.  The legacy :mod:`repro.core` analyzers re-walk the Python
object graph (``CollectorTable`` entries, ``LocRib`` tries, ``Route``
dataclasses) once per analysis, which makes the analyzer pass the dominant
wall-clock cost once propagation itself is fast.

The Looking Glass tables and every observed AS's best routes already live
as integer columns in the propagation stage's columnar RIB
(:class:`~repro.simulation.rib.RibColumns`), and the IRR is a list of
aut-num objects; :class:`~repro.analysis.engine.AnalysisEngine` reads both
in place.  :class:`MeasurementIndex` lowers only the collector, the one
observation whose rows are not RIB rows — they are vantage-prepended,
collapsed and grouped — read straight from the RIB, with no
``CollectorEntry``, ``Route`` or ``LocRib`` object built.  Prefix ids are
the RIB's:

* **Collector paths** — ASN tuples with ids in first-sight row order, each
  with its collapsed (deduplicated) tuple and origin AS.  They are interned
  per ``(vantage, RIB path id)``, which names one path: the RIB holds each
  tuple once, and no vantage is in a path it learned.
* **Collector columns** — one row per
  :func:`~repro.simulation.collector.collector_rows` row, in row order:
  ``(vantage, prefix id, path id)`` plus inverted groupings by prefix and by
  path member AS, and the observed adjacency set (consecutive AS pairs).

The index holds references to the stage artifacts it reads (topology,
vantage plan, RIB, IRR) so engine queries can reach them.  Build it with
``MeasurementIndex(internet, plan, rib, irr)`` or through the session
layer's ``ANALYSIS`` stage, a derived in-memory stage: rebuilding the index
from the stored upstream stages costs no more than decoding it would.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.collector import collector_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.rpsl import IrrDatabase
    from repro.session.stages import PolicyStageArtifact
    from repro.simulation.rib import RibColumns
    from repro.topology.generator import SyntheticInternet


class MeasurementIndex:
    """The compiled, shared index over one study's observation artifacts.

    Build once per study (the session layer's ``ANALYSIS`` stage caches
    it), query many times through
    :class:`~repro.analysis.engine.AnalysisEngine`.
    """

    def __init__(
        self,
        internet: "SyntheticInternet",
        plan: "PolicyStageArtifact",
        rib: "RibColumns",
        irr: "IrrDatabase",
    ) -> None:
        """Lower the collector rows of ``rib`` into columns.

        Args:
            internet: the topology stage's synthetic Internet.
            plan: the policies stage's vantage plan and assignment.
            rib: the propagation stage's columnar RIB.
            irr: the irr stage's database.

        The index keeps references to all four; it copies none of them.
        """
        self.graph = internet.graph
        self.internet = internet
        self.rib = rib
        self.assignment = plan.assignment
        self.irr = irr
        self.looking_glass_ases = list(plan.looking_glass_ases)
        self.vantage_ases = list(plan.vantage_ases)

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

        self._build_collector()

    def _build_collector(self) -> None:
        """Lower the collector rows: columns, groupings, adjacency.

        Each RIB path is collapsed once, then the vantage prepended; each
        interned path's members are sorted once.
        """
        rib_paths = self.rib.paths
        pair_ids: dict[tuple[ASN, int], int] = {}
        collapsed_rib: dict[int, tuple[ASN, ...]] = {}
        members: list[list[ASN]] = []
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
                members.append(sorted(set(collapsed)))
            self.col_vantage.append(vantage)
            self.col_prefix.append(pid)
            self.col_path.append(path_id)
            self.rows_by_prefix.setdefault(pid, []).append(row)
            for asn in members[path_id]:
                self.rows_by_member.setdefault(asn, []).append(row)

    # -- conveniences --------------------------------------------------------

    def tagging_asns(self) -> list[ASN]:
        """Looking Glass ASes that tag routes with relationship communities."""
        return [
            asn
            for asn in self.looking_glass_ases
            if self.assignment.policies[asn].community_plan is not None
        ]

    def stats(self) -> dict[str, int]:
        """Size counters, for the CLI and tests.

        The collector columns' sizes, and the counts of what the engine
        reads in place: the Looking Glass candidate rows and every observed
        AS's best rows in the RIB, and the IRR objects.
        """
        rib = self.rib
        offsets = rib.entry_offsets
        glass_rows = 0
        for asn in self.looking_glass_ases:
            entries = rib.entries(asn)
            glass_rows += offsets[entries.stop] - offsets[entries.start]
        return {
            "collector_rows": len(self.col_vantage),
            "interned_prefixes": len(self.prefixes),
            "interned_paths": len(self.paths),
            "adjacency_pairs": len(self.adjacency),
            "looking_glasses": len(self.looking_glass_ases),
            "glass_route_rows": glass_rows,
            "observed_tables": len(rib.owners),
            "table_best_rows": sum(1 for best in rib.entry_best if best >= 0),
            "irr_objects": len(self.irr),
        }
