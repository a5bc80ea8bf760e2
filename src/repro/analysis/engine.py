"""One-pass analyzer engine over the compiled measurement index.

:class:`AnalysisEngine` exposes every analysis the experiments run — policy
atoms, import-policy typicality (tables and IRR), LOCAL_PREF consistency,
SA-prefix inference and verification, SA causes, peer export behaviour,
community semantics and the ablations' inferred-graph and vantage-subset
variants — as queries over one shared
:class:`~repro.analysis.index.MeasurementIndex`.  It is the only analysis
code production runs; the :mod:`repro.core` analyzers are its test oracles.

The engine's contract is *result identity* with those analyzers: for the
same dataset, every query returns objects equal to what the corresponding
:mod:`repro.core` class produces (the golden suite in
``tests/analysis/test_engine_equivalence.py`` asserts this on all five
registered scenarios, and ``repro fuzz`` on sampled ones).  The speed comes
from three properties the legacy analyzers lack:

* **Precomputed groupings** — collector rows grouped by prefix and by path
  member AS turn the per-SA-prefix table scans of the Case-3 and Table-7
  analyses (``entries_for_prefix``, ``paths_containing``) into list hops.
* **Shared intermediates** — customer cones, customer paths, per-glass
  sweeps, Gao-inferred graphs and SA reports are computed once and reused
  by every downstream query instead of once per analyzer.
* **Columnar loops** — the hot loops run over integer columns, not
  ``Route``/``ASPath`` object graphs: the index's collector columns, and
  the columnar RIB's candidate and best rows read in place for the Looking
  Glass and table queries.  A ``Route`` is materialised only as an SA
  prefix's ``best_route``.  :func:`sa_rows`, the Fig. 4 rule, also
  classifies the Figs. 6/7 timeline snapshots.

Queries run in one thread, so every memo is a plain dict filled on first
use.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

from repro.core.atoms import AtomStatistics, PolicyAtom
from repro.core.causes import Case3Result, CauseBreakdown, HomingBreakdown
from repro.core.community import (
    CUSTOMER_PREFIX_THRESHOLD,
    FULL_TABLE_FRACTION,
    CommunitySemantics,
    CommunityVerificationResult,
    NeighborSignature,
    bucket_of,
)
from repro.core.consistency import ConsistencyResult
from repro.core.export_policy import (
    CustomerSAReport,
    SAPrefix,
    SAPrefixReport,
)
from repro.core.import_policy import (
    IrrTypicalityResult,
    TypicalityResult,
    _TYPICAL_RANK,
    _conforms,
)
from repro.core.peer_export import PeerBehaviour, PeerExportReport
from repro.core.verification import SAVerificationResult
from repro.data.rpsl import rpsl_pref_to_local_pref
from repro.exceptions import InferenceError, SimulationError
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.relationships.gao import GaoInference
from repro.simulation.rib import KIND_LOCAL, RibColumns
from repro.topology.graph import AnnotatedASGraph, Relationship

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.index import MeasurementIndex
    from repro.bgp.attributes import Community


def sa_rows(
    rib: RibColumns, provider: ASN, graph: AnnotatedASGraph, cone: set[ASN]
) -> tuple[int, list[tuple[int, int, Relationship | None]]]:
    """The Fig. 4 rule over one provider's best rows in ``rib``.

    A non-local best route to a prefix originated in the provider's
    customer ``cone`` counts as a customer prefix; it is an SA prefix unless
    its next hop is a customer of the provider in ``graph``.  Returns the
    customer-prefix count and, in table order, each SA prefix's ``(entry,
    best candidate row, relationship to the next hop)``.

    Raises:
        SimulationError: if the provider was not observed.
    """
    relationship_of = graph.relationship
    paths, cand_path = rib.paths, rib.cand_path
    next_hops, kinds = rib.cand_learned_from, rib.cand_kind
    customer_prefixes = 0
    rows: list[tuple[int, int, Relationship | None]] = []
    for entry, row in rib.best_rows(provider):
        if kinds[row] == KIND_LOCAL or paths[cand_path[row]][-1] not in cone:
            continue
        customer_prefixes += 1
        relationship = relationship_of(provider, next_hops[row])
        if relationship is not Relationship.CUSTOMER:
            rows.append((entry, row, relationship))
    return customer_prefixes, rows


class _GlassScan:
    """Everything one sweep over a Looking Glass AS's candidate rows yields.

    Attributes:
        neighbor_counts: per next-hop AS, the number of candidate routes it
            announces, in first-seen order (Fig. 9's quantity).
        community_votes: per next-hop AS, a vote counter over the glass AS's
            own community tags on its routes.
        consistency: per next-hop AS, a counter of LOCAL_PREF values over
            its candidate routes (the Fig. 2 modal computation).
        entry_observations: per RIB entry, the non-local ``(next hop,
            LOCAL_PREF)`` pairs in route order (Table 2's raw material).
    """

    __slots__ = (
        "neighbor_counts",
        "community_votes",
        "consistency",
        "entry_observations",
    )

    def __init__(self) -> None:
        """Start with empty accumulators; one sweep fills all of them."""
        self.neighbor_counts: dict[ASN, int] = {}
        self.community_votes: dict[ASN, Counter] = {}
        self.consistency: dict[ASN, Counter] = {}
        self.entry_observations: list[list[tuple[ASN, int]]] = []


class AnalysisEngine:
    """Runs the paper's analyses as one-pass queries over a measurement index.

    Args:
        index: the compiled :class:`~repro.analysis.index.MeasurementIndex`.
        graph: the relationship graph the queries classify against;
            ``None`` means the ground truth.  :meth:`inferred` passes the
            Gao-inferred graph.
    """

    def __init__(
        self, index: "MeasurementIndex", graph: AnnotatedASGraph | None = None
    ) -> None:
        """Wrap a compiled index; every memo table starts empty."""
        self.index = index
        self.graph: AnnotatedASGraph = graph if graph is not None else index.graph
        self._cones: dict[ASN, set[ASN]] = {}
        self._customer_paths: dict[tuple[ASN, ASN], tuple[ASN, ...] | None] = {}
        self._sa_reports: dict[ASN, SAPrefixReport] = {}
        self._glass_scans: dict[ASN, _GlassScan] = {}
        self._semantics: dict[ASN, CommunitySemantics] = {}
        self._candidate_next_hops: dict[ASN, dict[Prefix, set[ASN]]] = {}
        self._best_tries: dict[ASN, PrefixTrie] = {}
        self._active_paths: dict[tuple[ASN, ...], bool] = {}
        self._inferred: AnalysisEngine | None = None
        self._atoms: list[PolicyAtom] | None = None

    # -- shared intermediates ----------------------------------------------------

    def _cone(self, provider: ASN) -> set[ASN]:
        """The provider's customer cone, computed once."""
        cone = self._cones.get(provider)
        if cone is None:
            cone = self._cones[provider] = self.graph.customer_cone(provider)
        return cone

    def _customer_path(self, provider: ASN, origin: ASN) -> tuple[ASN, ...] | None:
        """One provider→customer path down to ``origin``, memoised."""
        key = (provider, origin)
        if key not in self._customer_paths:
            path = self.graph.find_customer_path(provider, origin)
            self._customer_paths[key] = tuple(path) if path is not None else None
        return self._customer_paths[key]

    def inferred(self) -> "AnalysisEngine":
        """This engine over the Gao-inferred relationship graph, built once.

        The sibling shares the index; its cones, customer paths and SA
        reports are memoised against the inferred graph.
        Table 4 verifies the inferred relationships, and the relationship
        ablation re-runs the Fig. 4 algorithm with them.
        """
        if self._inferred is None:
            # Columnar fast path: the index interns paths, so the table is a
            # column of path ids.  Feed each distinct collapsed path once, as
            # it is, with its row multiplicity — Gao's votes are linear in
            # multiplicity and its degrees/adjacency are set-valued, so this
            # is exactly the per-row inference without a per-row collapse.
            idx = self.index
            multiplicity = Counter(idx.col_path)
            graph = (
                GaoInference()
                .infer_weighted(
                    (idx.collapsed[pid], count)
                    for pid, count in multiplicity.items()
                )
                .graph
            )
            self._inferred = AnalysisEngine(idx, graph=graph)
        return self._inferred

    def providers_under_study(self) -> list[ASN]:
        """The studied (largest Tier-1) providers, ranked on the ground truth."""
        return self.index.internet.providers_under_study()

    def tagging_asns(self) -> list[ASN]:
        """Looking Glass ASes that tag routes with relationship communities."""
        return self.index.tagging_asns()

    # -- policy atoms (extension experiment) ---------------------------------------

    def atoms(self) -> list[PolicyAtom]:
        """Policy atoms of the collector table, largest first."""
        if self._atoms is not None:
            return self._atoms
        idx = self.index
        vectors: dict[int, dict[ASN, int]] = {}
        col_prefix, col_vantage, col_path = idx.col_prefix, idx.col_vantage, idx.col_path
        for row in range(len(col_prefix)):
            vectors.setdefault(col_prefix[row], {})[col_vantage[row]] = col_path[row]
        atoms: dict[tuple[tuple[ASN, int], ...], PolicyAtom] = {}
        for pid, by_vantage in vectors.items():
            signature_ids = tuple(sorted(by_vantage.items()))
            atom = atoms.get(signature_ids)
            if atom is None:
                atom = PolicyAtom(
                    signature=tuple(
                        (vantage, idx.paths[path_id]) for vantage, path_id in signature_ids
                    )
                )
                atoms[signature_ids] = atom
            atom.prefixes.append(idx.prefixes[pid])
            if by_vantage:
                atom.origin_ases.add(idx.path_origin[next(iter(by_vantage.values()))])
        result = list(atoms.values())
        result.sort(key=lambda atom: atom.size, reverse=True)
        self._atoms = result
        return result

    def atom_statistics(
        self, atoms: list[PolicyAtom] | None = None, sa_prefixes: set[Prefix] | None = None
    ) -> AtomStatistics:
        """Summary statistics of an atom decomposition (default: :meth:`atoms`).

        ``atoms_with_sa_prefixes`` counts the atoms holding any of
        ``sa_prefixes``; it stays 0 when none are given.
        """
        atoms = atoms if atoms is not None else self.atoms()
        stats = AtomStatistics(atom_count=len(atoms))
        for atom in atoms:
            stats.prefix_count += atom.size
            stats.largest_atom_size = max(stats.largest_atom_size, atom.size)
            if atom.size == 1:
                stats.single_prefix_atoms += 1
            if len(atom.origin_ases) == 1:
                stats.single_origin_atoms += 1
            if sa_prefixes and any(prefix in sa_prefixes for prefix in atom.prefixes):
                stats.atoms_with_sa_prefixes += 1
        return stats

    # -- Looking Glass sweeps ----------------------------------------------------

    def _glass_scan(self, asn: ASN) -> _GlassScan:
        """One combined sweep over a glass's RIB candidate rows, cached per glass.

        Rows are visited in RIB order, which is the legacy analyzers' table
        iteration order, so ``Counter`` insertion orders (and with them the
        ``most_common`` tie-breaks) match the oracles'.  The glass AS's own
        community tags are looked up once per community-set id.
        """
        scan = self._glass_scans.get(asn)
        if scan is not None:
            return scan
        rib = self.index.rib
        scan = _GlassScan()
        offsets = rib.entry_offsets
        next_hop = rib.cand_learned_from
        local_pref = rib.cand_local_pref
        kinds = rib.cand_kind
        comms = rib.cand_communities
        community_set = rib.community_set
        own: dict[int, tuple[Community, ...]] = {}
        counts = scan.neighbor_counts
        votes = scan.community_votes
        consistency = scan.consistency
        for entry in rib.entries(asn):
            observations: list[tuple[ASN, int]] = []
            for row in range(offsets[entry], offsets[entry + 1]):
                if kinds[row] == KIND_LOCAL:
                    continue
                neighbor = next_hop[row]
                pref = local_pref[row]
                counts[neighbor] = counts.get(neighbor, 0) + 1
                comm_id = comms[row]
                tags = own.get(comm_id)
                if tags is None:
                    tags = own[comm_id] = tuple(community_set(comm_id).from_asn(asn))
                if tags:
                    neighbor_votes = votes.get(neighbor)
                    if neighbor_votes is None:
                        neighbor_votes = votes[neighbor] = Counter()
                    for community in tags:
                        neighbor_votes[community] += 1
                per_neighbor = consistency.get(neighbor)
                if per_neighbor is None:
                    per_neighbor = consistency[neighbor] = Counter()
                per_neighbor[pref] += 1
                observations.append((neighbor, pref))
            scan.entry_observations.append(observations)
        self._glass_scans[asn] = scan
        return scan

    # -- import policy (Tables 2 and 3) ---------------------------------------------

    def import_typicality(self) -> list[TypicalityResult]:
        """Table 2: typical-LOCAL_PREF statistics for every Looking Glass AS."""
        return [
            self._import_typicality_one(asn) for asn in self.index.looking_glass_ases
        ]

    def _import_typicality_one(self, asn: ASN) -> TypicalityResult:
        """The Table 2 row of one Looking Glass AS."""
        rib = self.index.rib
        scan = self._glass_scan(asn)
        relationship_of = self.graph.relationship
        result = TypicalityResult(asn=asn)
        for entry, raw in zip(rib.entries(asn), scan.entry_observations):
            observations: list[tuple[Relationship, int]] = []
            for neighbor, pref in raw:
                relationship = relationship_of(asn, neighbor)
                if relationship is None:
                    continue
                observations.append((relationship, pref))
            if len({relationship for relationship, _ in observations}) < 2:
                continue
            result.comparable_prefixes += 1
            if all(
                _conforms(rel_a, pref_a, rel_b, pref_b)
                for (rel_a, pref_a), (rel_b, pref_b) in combinations(observations, 2)
            ):
                result.typical_prefixes += 1
            elif len(result.atypical_examples) < 10:
                result.atypical_examples.append(rib.prefixes[rib.entry_prefix[entry]])
        return result

    def irr_typicality(
        self,
        min_neighbors: int = 10,
        updated_during: str | None = "2002",
    ) -> list[IrrTypicalityResult]:
        """Table 3: typical-LOCAL_PREF statistics from the IRR's import lines."""
        if min_neighbors < 2:
            raise InferenceError("min_neighbors must be at least 2")
        relationship_of = self.graph.relationship
        results: list[IrrTypicalityResult] = []
        for obj in self.index.irr:
            if updated_during is not None and not obj.last_updated.startswith(
                updated_during
            ):
                continue
            observations: list[tuple[Relationship, int]] = []
            for line in obj.imports:
                if line.pref is None:
                    continue
                relationship = relationship_of(obj.asn, line.peer_as)
                if relationship is None:
                    continue
                observations.append((relationship, rpsl_pref_to_local_pref(line.pref)))
            if len(observations) < min_neighbors:
                continue
            result = IrrTypicalityResult(asn=obj.asn, neighbor_count=len(observations))
            for (rel_a, pref_a), (rel_b, pref_b) in combinations(observations, 2):
                if _TYPICAL_RANK[rel_a] == _TYPICAL_RANK[rel_b]:
                    continue
                result.comparable_pairs += 1
                if _conforms(rel_a, pref_a, rel_b, pref_b):
                    result.typical_pairs += 1
            if result.comparable_pairs > 0:
                results.append(result)
        return results

    # -- LOCAL_PREF consistency (Fig. 2) ----------------------------------------------

    def consistency_by_as(self) -> list[ConsistencyResult]:
        """Fig. 2(a): next-hop consistency of every Looking Glass AS."""
        return [
            self._consistency_result(asn, self._glass_scan(asn).consistency, 0)
            for asn in self.index.looking_glass_ases
        ]

    @staticmethod
    def _consistency_result(
        asn: ASN, per_neighbor: dict[ASN, Counter], router_id: int
    ) -> ConsistencyResult:
        """Fold per-neighbor LOCAL_PREF counters into a consistency result."""
        result = ConsistencyResult(asn=asn, router_id=router_id)
        for neighbor, counts in per_neighbor.items():
            mode_value, mode_count = counts.most_common(1)[0]
            result.neighbor_modes[neighbor] = mode_value
            result.total_routes += sum(counts.values())
            result.consistent_routes += mode_count
        return result

    def glass_neighbors(self, asn: ASN) -> list[ASN]:
        """Every next-hop AS visible in a Looking Glass table, sorted.

        Mirrors ``LookingGlass.neighbors()`` (which excludes the owner but
        counts next hops of every candidate route, local or not).
        """
        rib = self.index.rib
        entries = rib.entries(asn)
        hops = rib.cand_learned_from[
            rib.entry_offsets[entries.start] : rib.entry_offsets[entries.stop]
        ]
        return sorted({neighbor for neighbor in hops if neighbor != asn})

    def biggest_glass_asn(self) -> ASN:
        """The Looking Glass AS with the most prefixes (Fig. 2(b)'s AT&T role)."""
        rib = self.index.rib
        return max(self.index.looking_glass_ases, key=lambda asn: len(rib.entries(asn)))

    def consistency_by_router(self, router_count: int = 30) -> list[ConsistencyResult]:
        """Fig. 2(b): per-router consistency inside the biggest Looking Glass AS.

        Replays the Looking Glass's synthetic router-view construction
        (``LookingGlass.router_views`` with its default override fraction
        and seed) — same RNG draw sequence, same per-prefix overrides —
        directly over the RIB's best rows, without materialising the
        ``LocRib`` copies the legacy path builds.
        """
        if router_count < 1:
            raise SimulationError("router_count must be at least 1")
        asn = self.biggest_glass_asn()
        rib = self.index.rib
        rng = random.Random(7)
        override_choices = (80, 85, 95, 115, 120)
        results: list[ConsistencyResult] = []
        next_hop = rib.cand_learned_from
        local_pref = rib.cand_local_pref
        kinds = rib.cand_kind
        best_rows = [row for _, row in rib.best_rows(asn)]
        for router_id in range(1, router_count + 1):
            per_neighbor: dict[ASN, Counter] = {}
            for row in best_rows:
                # The RNG is consumed for every best route — local ones
                # included — exactly like LookingGlass.router_views.
                if rng.random() < 0.05:
                    pref = rng.choice(override_choices)
                else:
                    pref = local_pref[row]
                if kinds[row] == KIND_LOCAL:
                    continue
                neighbor = next_hop[row]
                counts = per_neighbor.get(neighbor)
                if counts is None:
                    counts = per_neighbor[neighbor] = Counter()
                counts[pref] += 1
            results.append(self._consistency_result(asn, per_neighbor, router_id))
        return results

    # -- export policy: SA prefixes (Fig. 4, Tables 5 and 6) ----------------------------

    def sa_report(self, provider: ASN) -> SAPrefixReport:
        """The Fig. 4 SA-prefix report of one provider, cached.

        The ground-truth prefix ownership counts the customer prefixes
        missing from the provider's table entirely.

        Raises:
            InferenceError: if the provider is not in this engine's graph.
        """
        report = self._sa_reports.get(provider)
        if report is None:
            report = self._sa_reports[provider] = self._compute_sa_report(provider)
        return report

    def _compute_sa_report(self, provider: ASN) -> SAPrefixReport:
        """Run the Fig. 4 algorithm over one provider's best rows in the RIB."""
        if provider not in self.graph:
            raise InferenceError(f"AS{provider} is not in the relationship graph")
        idx = self.index
        rib = idx.rib
        cone = self._cone(provider)
        customer_prefixes, rows = sa_rows(rib, provider, self.graph, cone)
        report = SAPrefixReport(
            provider=provider,
            customer_prefix_count=customer_prefixes,
            customer_route_prefix_count=customer_prefixes - len(rows),
        )
        paths, cand_path, next_hops = rib.paths, rib.cand_path, rib.cand_learned_from
        for entry, row, relationship in rows:
            origin = paths[cand_path[row]][-1]
            prefix = rib.prefixes[rib.entry_prefix[entry]]
            customer_path = self._customer_path(provider, origin)
            report.sa_prefixes.append(
                SAPrefix(
                    prefix=prefix,
                    origin_as=origin,
                    next_hop_as=next_hops[row],
                    next_hop_relationship=relationship,
                    best_route=rib.route(prefix, row),
                    customer_path=list(customer_path) if customer_path else [],
                )
            )
        # A prefix is missing when the provider's table has no best route
        # for it: either it was never observed anywhere (no interned id) or
        # it has no best row in this table.  (The legacy `prefix not in
        # seen_prefixes` guard is implied: every seen prefix has a
        # best-route row.)
        with_best = {rib.entry_prefix[entry] for entry, _ in rib.best_rows(provider)}
        for origin, prefixes in idx.internet.originated.items():
            if origin not in cone:
                continue
            for prefix in prefixes:
                pid = idx.prefix_ids.get(prefix)
                if pid is None or pid not in with_best:
                    report.missing_prefix_count += 1
        return report

    def sa_reports(self) -> dict[ASN, SAPrefixReport]:
        """SA-prefix reports of the studied providers (Table 5's core rows)."""
        return {
            provider: self.sa_report(provider)
            for provider in self.providers_under_study()
        }

    def all_provider_reports(self) -> dict[ASN, SAPrefixReport]:
        """SA-prefix reports for every observed AS with customers (Table 5)."""
        customers_of = self.graph.customers_of
        return {
            asn: self.sa_report(asn)
            for asn in self.index.rib.owners
            if customers_of(asn)
        }

    def customer_sa_reports(self, min_prefixes: int = 3) -> list[CustomerSAReport]:
        """Table 6: customers shared by all studied providers, by SA count."""
        reports = self.sa_reports()
        providers = sorted(reports)
        if not providers:
            return []
        cones = [self._cone(provider) for provider in providers]
        shared_customers = set.intersection(*cones) if cones else set()

        rib = self.index.rib
        paths, cand_path, kinds = rib.paths, rib.cand_path, rib.cand_kind
        originated: dict[ASN, set[int]] = {}
        for provider in self.providers_under_study():
            for entry, row in rib.best_rows(provider):
                if kinds[row] == KIND_LOCAL:
                    continue
                originated.setdefault(paths[cand_path[row]][-1], set()).add(
                    rib.entry_prefix[entry]
                )

        sa_pids: set[int] = set()
        for report in reports.values():
            for item in report.sa_prefixes:
                pid = self.index.prefix_ids.get(item.prefix)
                if pid is not None:
                    sa_pids.add(pid)

        results: list[CustomerSAReport] = []
        for customer in sorted(shared_customers):
            pids = originated.get(customer, set())
            if len(pids) < min_prefixes:
                continue
            results.append(
                CustomerSAReport(
                    customer=customer,
                    prefix_count=len(pids),
                    sa_prefix_count=sum(1 for pid in pids if pid in sa_pids),
                )
            )
        results.sort(key=lambda row: row.sa_prefix_count, reverse=True)
        return results

    # -- export policy toward peers (Table 10) ---------------------------------------

    def _candidates(self, asn: ASN) -> dict[Prefix, set[ASN]]:
        """Per prefix, the non-local candidate next hops in an AS's table."""
        cached = self._candidate_next_hops.get(asn)
        if cached is not None:
            return cached
        rib = self.index.rib
        kinds, hops_of = rib.cand_kind, rib.cand_learned_from
        candidates: dict[Prefix, set[ASN]] = {}
        for entry in rib.entries(asn):
            candidates[rib.prefixes[rib.entry_prefix[entry]]] = {
                hops_of[row] for row in rib.candidates(entry) if kinds[row] != KIND_LOCAL
            }
        self._candidate_next_hops[asn] = candidates
        return candidates

    def peer_export_report(
        self, asn: ASN, full_export_threshold: float = 1.0
    ) -> PeerExportReport:
        """Table 10: how the AS's peers announce their own prefixes to it.

        Each peer's prefixes come from the ground-truth prefix ownership.
        """
        originated = self.index.internet.originated
        report = PeerExportReport(asn=asn, full_export_threshold=full_export_threshold)
        peers = [
            neighbor
            for neighbor in self.graph.neighbors(asn)
            if self.graph.relationship(asn, neighbor) is Relationship.PEER
        ]
        candidates = self._candidates(asn)
        for peer in sorted(peers):
            peer_prefixes = originated.get(peer, [])
            if not peer_prefixes:
                continue
            behaviour = PeerBehaviour(peer=peer, originated_prefixes=len(peer_prefixes))
            for prefix in peer_prefixes:
                if peer in candidates.get(prefix, ()):
                    behaviour.directly_received += 1
            report.peers.append(behaviour)
        return report

    def peer_export_reports(
        self, full_export_threshold: float = 1.0
    ) -> dict[ASN, PeerExportReport]:
        """Table 10 for every studied provider."""
        return {
            asn: self.peer_export_report(asn, full_export_threshold)
            for asn in self.providers_under_study()
        }

    # -- causes of SA prefixes (Tables 8 and 9, Case 3) -------------------------------

    def homing_breakdown(self, provider: ASN) -> HomingBreakdown:
        """Table 8: homing of the provider's SA-prefix origins."""
        breakdown = HomingBreakdown(provider=provider)
        is_multihomed = self.graph.is_multihomed
        for origin in self.sa_report(provider).origins_with_sa_prefixes():
            if is_multihomed(origin):
                breakdown.multihomed_origins.add(origin)
            else:
                breakdown.singlehomed_origins.add(origin)
        return breakdown

    def _best_trie(self, provider: ASN) -> PrefixTrie:
        """A radix trie of the provider's best RIB candidate rows, by prefix, built once."""
        trie = self._best_tries.get(provider)
        if trie is not None:
            return trie
        trie = PrefixTrie()
        rib = self.index.rib
        for entry, row in rib.best_rows(provider):
            trie.insert(rib.prefixes[rib.entry_prefix[entry]], row)
        self._best_tries[provider] = trie
        return trie

    def cause_breakdown(self, provider: ASN) -> CauseBreakdown:
        """Table 9: SA prefixes explained by splitting / aggregating / selective."""
        report = self.sa_report(provider)
        trie = self._best_trie(provider)
        rib = self.index.rib
        paths, cand_path, next_hops = rib.paths, rib.cand_path, rib.cand_learned_from
        relationship_of = self.graph.relationship
        breakdown = CauseBreakdown(
            provider=provider, sa_prefix_count=report.sa_prefix_count
        )
        for item in report.sa_prefixes:
            is_splitting = False
            for other_prefix, other in (
                *trie.covering(item.prefix),
                *trie.covered(item.prefix),
            ):
                if other_prefix == item.prefix:
                    continue
                if paths[cand_path[other]][-1] != item.origin_as:
                    continue
                if relationship_of(provider, next_hops[other]) is Relationship.CUSTOMER:
                    is_splitting = True
                    break
            is_aggregating = any(
                covering_prefix.length < item.prefix.length
                for covering_prefix, _ in trie.covering(item.prefix)
            )
            if is_splitting:
                breakdown.splitting_count += 1
            if is_aggregating:
                breakdown.aggregating_count += 1
            if not is_splitting and not is_aggregating:
                breakdown.selective_count += 1
        return breakdown

    def case3(
        self, provider: ASN, vantages: Iterable[ASN] | None = None
    ) -> Case3Result:
        """Section 5.1.5 Case 3 for one provider, via the by-prefix grouping.

        ``vantages`` keeps only the collector rows of those peer ASes (all
        rows when ``None``).  That is exactly the table a collector peering
        with just them would hold, because each vantage's rows come from
        its own routing table alone; the vantage-count ablation uses it.
        """
        idx = self.index
        keep = frozenset(vantages) if vantages is not None else None
        report = self.sa_report(provider)
        result = Case3Result(
            provider=provider, sa_prefix_count=report.sa_prefix_count
        )
        for item in report.sa_prefixes:
            if not item.customer_path or len(item.customer_path) < 2:
                continue
            direct_provider = item.customer_path[-2]
            pid = idx.prefix_ids.get(item.prefix)
            rows = idx.rows_by_prefix.get(pid, []) if pid is not None else []
            if keep is not None:
                rows = [row for row in rows if idx.col_vantage[row] in keep]
            observed_paths = [idx.collapsed[idx.col_path[row]] for row in rows]
            if not observed_paths:
                continue
            result.identified_count += 1
            exported = any(
                origin_index > 0 and path[origin_index - 1] == direct_provider
                for path in observed_paths
                for origin_index in [len(path) - 1]
                if path and path[-1] == item.origin_as
            )
            if exported:
                result.exported_to_direct_provider += 1
            else:
                result.not_exported_to_direct_provider += 1
        return result

    # -- community semantics (Appendix, Fig. 9, Tables 4 and 11) ------------------------

    def prefix_counts_by_rank(self, asn: ASN) -> list[tuple[ASN, int]]:
        """Fig. 9: (next-hop AS, prefix count) sorted by non-increasing count."""
        counts = self._glass_scan(asn).neighbor_counts
        return sorted(counts.items(), key=lambda item: item[1], reverse=True)

    def neighbor_signatures(self, asn: ASN) -> dict[ASN, NeighborSignature]:
        """Each neighbor's prefix count and dominant tagged community."""
        scan = self._glass_scan(asn)
        signatures: dict[ASN, NeighborSignature] = {}
        for neighbor, count in scan.neighbor_counts.items():
            votes = scan.community_votes.get(neighbor)
            community = votes.most_common(1)[0][0] if votes else None
            signatures[neighbor] = NeighborSignature(
                neighbor=neighbor, prefix_count=count, community=community
            )
        return signatures

    def infer_semantics(self, asn: ASN) -> CommunitySemantics:
        """Infer what each community value range means for one tagging AS.

        Mirrors :meth:`repro.core.community.CommunityAnalyzer.infer_semantics`
        (no published plan) over the cached per-glass sweep; memoised per
        AS.
        """
        cached = self._semantics.get(asn)
        if cached is not None:
            return cached
        semantics = CommunitySemantics(asn=asn)
        semantics.signatures = self.neighbor_signatures(asn)
        total_prefixes = len(self.index.rib.entries(asn))
        ranked = sorted(
            semantics.signatures.values(), key=lambda s: s.prefix_count, reverse=True
        )
        provider_anchors = [
            s for s in ranked if s.prefix_count >= FULL_TABLE_FRACTION * total_prefixes
        ]
        customer_anchors = [
            s for s in ranked if s.prefix_count <= CUSTOMER_PREFIX_THRESHOLD
        ]
        peer_floor = max(CUSTOMER_PREFIX_THRESHOLD * 4, int(0.02 * total_prefixes))
        non_provider = [s for s in ranked if s not in provider_anchors]
        peer_candidates = [s for s in non_provider if s.prefix_count >= peer_floor]
        peer_anchors = (
            peer_candidates[: max(1, len(peer_candidates) // 3)] if peer_candidates else []
        )
        for anchor_set, relationship in (
            (provider_anchors, Relationship.PROVIDER),
            (peer_anchors, Relationship.PEER),
            (customer_anchors, Relationship.CUSTOMER),
        ):
            for signature in anchor_set:
                if signature.community is None:
                    continue
                bucket = bucket_of(signature.community)
                if bucket not in semantics.value_to_relationship:
                    semantics.value_to_relationship[bucket] = relationship
                    semantics.anchors[signature.neighbor] = relationship
        self._semantics[asn] = semantics
        return semantics

    def verify_relationships(self) -> list[CommunityVerificationResult]:
        """Table 4: verify each tagging AS's relationships via communities.

        Checks the Gao-inferred graph, like the paper (it verifies
        *inferred* relationships).
        """
        relationships = self.inferred().graph
        results: list[CommunityVerificationResult] = []
        for asn in self.tagging_asns():
            semantics = self.infer_semantics(asn)
            if not semantics.value_to_relationship:
                continue
            result = CommunityVerificationResult(asn=asn)
            for neighbor, signature in semantics.signatures.items():
                result.neighbor_count += 1
                derived = semantics.relationship_for_neighbor(neighbor)
                if derived is None:
                    continue
                graph_relationship = relationships.relationship(asn, neighbor)
                if graph_relationship is None:
                    continue
                result.verifiable_neighbors += 1
                if graph_relationship is derived or (
                    graph_relationship is Relationship.SIBLING
                    and derived is Relationship.CUSTOMER
                ):
                    result.verified_neighbors += 1
                else:
                    result.mismatches.append(neighbor)
            results.append(result)
        return results

    # -- SA-prefix verification (Table 7) ----------------------------------------------

    def _customer_path_is_active(self, path: tuple[ASN, ...]) -> bool:
        """Whether a customer path is traversed by observed routes, memoised."""
        cached = self._active_paths.get(path)
        if cached is not None:
            return cached
        idx = self.index
        needles = [path, path[1:]] if len(path) > 2 else [path]
        active = False
        for row in idx.rows_by_member.get(path[-1], ()):
            collapsed = idx.collapsed[idx.col_path[row]]
            for needle in needles:
                if not needle:
                    continue
                width = len(needle)
                for start in range(len(collapsed) - width + 1):
                    if collapsed[start : start + width] == needle:
                        active = True
                        break
                if active:
                    break
            if active:
                break
        if not active:
            pairs = (
                list(zip(path[1:], path[2:]))
                if len(path) > 2
                else list(zip(path, path[1:]))
            )
            active = bool(pairs) and all(pair in idx.adjacency for pair in pairs)
        self._active_paths[path] = active
        return active

    def verify_sa_report(self, report: SAPrefixReport) -> SAVerificationResult:
        """Table 7: verify one provider's SA prefixes against observed paths."""
        result = SAVerificationResult(provider=report.provider)
        provider = report.provider
        relationship_of = self.graph.relationship
        for item in report.sa_prefixes:
            result.sa_prefix_count += 1
            if item.next_hop_relationship is None:
                result.step1_failures += 1
                continue
            if not item.customer_path:
                result.step2_failures += 1
                continue
            if len(item.customer_path) == 2:
                step2_ok = (
                    relationship_of(provider, item.origin_as) is Relationship.CUSTOMER
                )
            else:
                step2_ok = self._customer_path_is_active(tuple(item.customer_path))
            if step2_ok:
                result.verified_count += 1
            else:
                result.step2_failures += 1
        return result

    def verify_sa_prefixes(self) -> dict[ASN, SAVerificationResult]:
        """Table 7 for the studied providers."""
        return {
            provider: self.verify_sa_report(report)
            for provider, report in self.sa_reports().items()
        }

    # -- ablation support ---------------------------------------------------------

    def strict_sa_count(self, provider: ASN) -> int:
        """SA prefixes with *no* customer candidate route at all (ablation)."""
        candidates = self._candidates(provider)
        relationship_of = self.graph.relationship
        report = self.sa_report(provider)
        strict = 0
        for item in report.sa_prefixes:
            hops: Iterable[ASN] = candidates.get(item.prefix, ())
            if not any(
                relationship_of(provider, hop) is Relationship.CUSTOMER for hop in hops
            ):
                strict += 1
        return strict
