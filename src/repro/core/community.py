"""Community-semantics inference and relationship verification (Appendix).

Many ASes tag the routes they receive with communities that encode the
relationship with the announcing neighbor (Table 11 shows AS12859's plan).
The paper's Appendix uses those communities to *verify* inferred AS
relationships:

1. **Query** the community tagged on routes from each next-hop AS (here:
   read it from the Looking Glass table).
2. **Infer the semantics** of the community values: when the AS publishes the
   plan (in the IRR or on its website) the mapping is given; otherwise the
   mapping is bootstrapped from the number of prefixes each next-hop AS
   announces (Fig. 9) — a neighbor announcing a near-full table is a
   provider, neighbors announcing one or two prefixes are customers, large
   announcers of a provider-free AS are peers — and every neighbor tagged
   with the "same" community value (same value range) inherits the anchor's
   relationship.
3. **Map** communities to relationships for all neighbors and compare with
   the inferred graph (feeding Table 4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.bgp.attributes import Community
from repro.net.asn import ASN
from repro.simulation.collector import LookingGlass
from repro.simulation.policies import CommunityPlan
from repro.topology.graph import AnnotatedASGraph, Relationship

#: The Appendix's prefix-count anchors: a neighbor announcing at least this
#: fraction of the table is a provider ...
FULL_TABLE_FRACTION = 0.8
#: ... and one announcing at most this many prefixes is a customer.
CUSTOMER_PREFIX_THRESHOLD = 3


@dataclass
class NeighborSignature:
    """What the Looking Glass reveals about one next-hop AS.

    Attributes:
        neighbor: the next-hop AS.
        prefix_count: how many prefixes it announces to the tagging AS.
        community: the dominant community (defined by the tagging AS) on the
            routes learned from it, if any.
    """

    neighbor: ASN
    prefix_count: int
    community: Community | None = None


@dataclass
class CommunitySemantics:
    """The inferred meaning of an AS's relationship-tagging communities.

    Attributes:
        asn: the tagging AS.
        value_to_relationship: mapping from a community *bucket* (see
            :func:`bucket_of`) to the inferred relationship.
        signatures: the per-neighbor evidence used.
        anchors: neighbors whose relationship was fixed by the prefix-count
            heuristic (the "special ASes" of the Appendix).
    """

    asn: ASN
    value_to_relationship: dict[int, Relationship] = field(default_factory=dict)
    signatures: dict[ASN, NeighborSignature] = field(default_factory=dict)
    anchors: dict[ASN, Relationship] = field(default_factory=dict)

    def relationship_for_community(self, community: Community) -> Relationship | None:
        """The relationship a community value encodes, if inferred."""
        if community.asn != self.asn:
            return None
        return self.value_to_relationship.get(bucket_of(community))

    def relationship_for_neighbor(self, neighbor: ASN) -> Relationship | None:
        """The relationship of a neighbor according to its tagged community."""
        signature = self.signatures.get(neighbor)
        if signature is None or signature.community is None:
            return None
        return self.relationship_for_community(signature.community)


def bucket_of(community: Community, bucket_size: int = 1000) -> int:
    """Group community values into ranges.

    The Appendix observes that one relationship may be indicated by several
    community values drawn from the same range ("12859:1010" and
    "12859:1020" are the *same* for this purpose); bucketing by
    ``value // bucket_size`` reproduces that equivalence.
    """
    return community.value // bucket_size


@dataclass
class CommunityVerificationResult:
    """Table 4 style row: community-verified relationships of one AS.

    Attributes:
        asn: the tagging AS.
        neighbor_count: neighbors visible in its table.
        verifiable_neighbors: neighbors whose routes carry a tagged community
            with inferred semantics.
        verified_neighbors: verifiable neighbors whose community-derived
            relationship matches the supplied relationship graph.
        mismatches: neighbors where the two disagree.
    """

    asn: ASN
    neighbor_count: int = 0
    verifiable_neighbors: int = 0
    verified_neighbors: int = 0
    mismatches: list[ASN] = field(default_factory=list)

    @property
    def percent_verified(self) -> float:
        """Percentage of verifiable neighbor relationships confirmed."""
        if self.verifiable_neighbors == 0:
            return 0.0
        return 100.0 * self.verified_neighbors / self.verifiable_neighbors


class CommunityAnalyzer:
    """Implements the Appendix: Fig. 9, semantics inference, Table 4 verification."""

    # -- Fig. 9 ---------------------------------------------------------------------

    def prefix_counts_by_rank(self, glass: LookingGlass) -> list[tuple[ASN, int]]:
        """Fig. 9: (next-hop AS, prefix count) sorted by non-increasing count."""
        counts = glass.prefix_count_by_neighbor()
        return sorted(counts.items(), key=lambda item: item[1], reverse=True)

    # -- signatures ---------------------------------------------------------------------

    def neighbor_signatures(self, glass: LookingGlass) -> dict[ASN, NeighborSignature]:
        """Collect each neighbor's prefix count and dominant tagged community."""
        counts = glass.prefix_count_by_neighbor()
        community_votes: dict[ASN, Counter] = {n: Counter() for n in counts}
        for entry in glass.table.entries():
            for route in entry.routes:
                if route.is_local:
                    continue
                own = route.communities.from_asn(glass.asn)
                if not own:
                    continue
                for community in own:
                    community_votes[route.next_hop_as][community] += 1
        signatures: dict[ASN, NeighborSignature] = {}
        for neighbor, count in counts.items():
            votes = community_votes.get(neighbor)
            community = votes.most_common(1)[0][0] if votes else None
            signatures[neighbor] = NeighborSignature(
                neighbor=neighbor, prefix_count=count, community=community
            )
        return signatures

    # -- semantics inference (Appendix Step 2) -----------------------------------------------

    def infer_semantics(
        self,
        glass: LookingGlass,
        published_plan: CommunityPlan | None = None,
    ) -> CommunitySemantics:
        """Infer what each community value range means for one tagging AS.

        When the AS publishes its plan (``published_plan``), the mapping is
        read off directly, mirroring ASes that register the semantics in the
        IRR.  Otherwise the prefix-count heuristic of the Appendix anchors a
        few neighbors (provider / peer / customer) and every community bucket
        inherits the relationship of its anchors.
        """
        semantics = CommunitySemantics(asn=glass.asn)
        semantics.signatures = self.neighbor_signatures(glass)
        if not semantics.signatures:
            return semantics

        if published_plan is not None:
            for signature in semantics.signatures.values():
                if signature.community is None:
                    continue
                relationship = published_plan.relationship_of(signature.community)
                if relationship is not None:
                    semantics.value_to_relationship[bucket_of(signature.community)] = (
                        relationship
                    )
            return semantics

        total_prefixes = len(list(glass.table.prefixes()))
        ranked = sorted(
            semantics.signatures.values(), key=lambda s: s.prefix_count, reverse=True
        )
        # Anchor providers: neighbors announcing (nearly) the full table.
        provider_anchors = [
            s for s in ranked
            if s.prefix_count >= FULL_TABLE_FRACTION * total_prefixes
        ]
        # Anchor customers: neighbors announcing only a handful of prefixes.
        customer_anchors = [
            s for s in ranked if s.prefix_count <= CUSTOMER_PREFIX_THRESHOLD
        ]
        # Anchor peers: large announcers that are not providers.  "Large" means
        # clearly above customer scale (the big gap of the Appendix), so an AS
        # with no peers at all does not get a customer mislabelled as one.
        peer_floor = max(CUSTOMER_PREFIX_THRESHOLD * 4, int(0.02 * total_prefixes))
        non_provider = [s for s in ranked if s not in provider_anchors]
        peer_candidates = [s for s in non_provider if s.prefix_count >= peer_floor]
        peer_anchors = peer_candidates[: max(1, len(peer_candidates) // 3)] if peer_candidates else []

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
        return semantics

    # -- relationship verification (Appendix Step 3, Table 4) -------------------------------------

    def verify_relationships(
        self,
        glass: LookingGlass,
        semantics: CommunitySemantics,
        relationships: AnnotatedASGraph,
    ) -> CommunityVerificationResult:
        """Compare community-derived relationships against a relationship graph."""
        result = CommunityVerificationResult(asn=glass.asn)
        for neighbor, signature in semantics.signatures.items():
            result.neighbor_count += 1
            derived = semantics.relationship_for_neighbor(neighbor)
            if derived is None:
                continue
            graph_relationship = relationships.relationship(glass.asn, neighbor)
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
        return result
