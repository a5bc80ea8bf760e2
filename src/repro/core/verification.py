"""Verification of inferred relationships and of SA prefixes.

Two verification steps from the paper:

* **Section 4.3 / Table 4** — verify the relationships between a tagging AS
  and its neighbors using the community semantics of the Appendix
  (implemented in :mod:`repro.core.community`); this module aggregates the
  per-AS results.
* **Section 5.1.3 / Table 7** — verify SA prefixes: (step 1) the provider's
  relationship with the best route's next-hop AS must be confirmed, and
  (step 2) the customer relationship between the provider and the origin AS
  must be confirmed — directly for direct customers, via an *active
  customer path* (some other prefix traverses the same provider→customer
  path) for indirect customers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.community import CommunityAnalyzer, CommunityVerificationResult
from repro.core.export_policy import SAPrefixReport
from repro.net.asn import ASN
from repro.simulation.collector import CollectorTable, LookingGlass
from repro.simulation.policies import CommunityPlan
from repro.topology.graph import AnnotatedASGraph, Relationship


@dataclass
class SAVerificationResult:
    """Table 7 style row: verified SA prefixes of one provider.

    Attributes:
        provider: the provider AS.
        sa_prefix_count: number of SA prefixes inspected.
        verified_count: SA prefixes passing both verification steps.
        step1_failures: prefixes whose next-hop relationship could not be
            confirmed.
        step2_failures: prefixes whose customer path could not be confirmed.
    """

    provider: ASN
    sa_prefix_count: int = 0
    verified_count: int = 0
    step1_failures: int = 0
    step2_failures: int = 0

    @property
    def percent_verified(self) -> float:
        """Percentage of SA prefixes verified."""
        if self.sa_prefix_count == 0:
            return 100.0
        return 100.0 * self.verified_count / self.sa_prefix_count


class Verifier:
    """Aggregates community-based relationship verification and SA verification."""

    def __init__(
        self,
        relationships: AnnotatedASGraph,
        community_analyzer: CommunityAnalyzer | None = None,
    ) -> None:
        self.relationships = relationships
        self.community_analyzer = community_analyzer or CommunityAnalyzer()
        self._adjacency_cache: dict[int, set[tuple[ASN, ASN]]] = {}

    # -- Table 4 ----------------------------------------------------------------------

    def verify_relationships(
        self,
        glasses: Sequence[LookingGlass],
        published_plans: dict[ASN, CommunityPlan] | None = None,
    ) -> list[CommunityVerificationResult]:
        """Verify each tagging AS's neighbor relationships (Table 4)."""
        published_plans = published_plans or {}
        results: list[CommunityVerificationResult] = []
        for glass in glasses:
            semantics = self.community_analyzer.infer_semantics(
                glass, published_plan=published_plans.get(glass.asn)
            )
            if not semantics.value_to_relationship:
                continue
            results.append(
                self.community_analyzer.verify_relationships(
                    glass, semantics, self.relationships
                )
            )
        return results

    # -- Table 7 --------------------------------------------------------------------------

    def verify_sa_prefixes(
        self,
        report: SAPrefixReport,
        collector: CollectorTable,
        verified_neighbor_ases: set[ASN] | None = None,
    ) -> SAVerificationResult:
        """Verify the SA prefixes of one provider (Table 7).

        Args:
            report: the provider's SA-prefix report (Fig. 4 output).
            collector: the collector table used to test customer-path
                activeness.
            verified_neighbor_ases: neighbors of the provider whose
                relationship has been independently verified (e.g. via
                communities, Table 4).  When ``None``, the relationship graph
                itself is trusted for step 1 (the provider's direct edges).
        """
        result = SAVerificationResult(provider=report.provider)
        provider = report.provider
        for item in report.sa_prefixes:
            result.sa_prefix_count += 1
            # Step 1: the relationship with the next-hop AS must be known
            # (and, if an independent verification set is given, confirmed).
            step1_ok = item.next_hop_relationship is not None
            if verified_neighbor_ases is not None:
                step1_ok = step1_ok and item.next_hop_as in verified_neighbor_ases
            if not step1_ok:
                result.step1_failures += 1
                continue
            # Step 2: the customer relationship between provider and origin.
            if not item.customer_path:
                result.step2_failures += 1
                continue
            if len(item.customer_path) == 2:
                # Direct customer: the provider-customer edge itself.
                step2_ok = (
                    self.relationships.relationship(provider, item.origin_as)
                    is Relationship.CUSTOMER
                )
                if verified_neighbor_ases is not None:
                    step2_ok = step2_ok and item.origin_as in verified_neighbor_ases
            else:
                step2_ok = self._customer_path_is_active(item.customer_path, collector)
            if step2_ok:
                result.verified_count += 1
            else:
                result.step2_failures += 1
        return result

    def verify_many(
        self,
        reports: dict[ASN, SAPrefixReport],
        collector: CollectorTable,
        verified_neighbor_ases: dict[ASN, set[ASN]] | None = None,
    ) -> dict[ASN, SAVerificationResult]:
        """Verify SA prefixes for several providers."""
        verified_neighbor_ases = verified_neighbor_ases or {}
        return {
            provider: self.verify_sa_prefixes(
                report, collector, verified_neighbor_ases.get(provider)
            )
            for provider, report in reports.items()
        }

    # -- helpers ------------------------------------------------------------------------------

    def _customer_path_is_active(self, path: list[ASN], collector: CollectorTable) -> bool:
        """``True`` if the customer path is *active* in the observed tables.

        The customer path is provider-first; an AS path in a table is
        receiver-first, so ideally the whole customer path appears as a
        consecutive subsequence of some observed path (other prefixes really
        are routed along it — the paper's Step 2).  On the synthetic Internet
        customers originate far fewer prefixes than real ASes do, so a
        pairwise relaxation is also accepted: every consecutive
        provider→customer pair of the path (below the provider, whose own
        edge was already confirmed in step 1) is traversed, in the same
        order, by some observed path.  Each pair's adjacency is exactly the
        evidence the paper's export-rule argument uses to validate that pair.
        """
        needles = [tuple(path), tuple(path[1:])] if len(path) > 2 else [tuple(path)]
        observed = [
            as_path.deduplicate().asns for as_path in collector.paths_containing(path[-1])
        ]
        for collapsed in observed:
            for needle in needles:
                if not needle:
                    continue
                for start in range(len(collapsed) - len(needle) + 1):
                    if collapsed[start : start + len(needle)] == needle:
                        return True
        # Pairwise fallback: every edge of the path below the provider must be
        # traversed by some observed path in provider→customer order.
        pairs = list(zip(path[1:], path[2:])) if len(path) > 2 else list(zip(path, path[1:]))
        if not pairs:
            return False
        adjacency = self._observed_adjacency(collector)
        return all(pair in adjacency for pair in pairs)

    def _observed_adjacency(self, collector: CollectorTable) -> set[tuple[ASN, ASN]]:
        """All adjacent (nearer-receiver, nearer-origin) AS pairs observed in the collector."""
        cached = self._adjacency_cache.get(id(collector))
        if cached is not None:
            return cached
        adjacency: set[tuple[ASN, ASN]] = set()
        for entry in collector.entries:
            collapsed = entry.as_path.deduplicate().asns
            adjacency.update(zip(collapsed, collapsed[1:]))
        self._adjacency_cache[id(collector)] = adjacency
        return adjacency
