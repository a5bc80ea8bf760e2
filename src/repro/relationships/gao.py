"""Gao-style AS-relationship inference from AS paths (reference [12]).

The paper infers AS relationships from a collection of BGP routing tables
using the algorithm of Gao (ToN 2001).  The algorithm rests on two
observations about valley-free routing:

* along any observed AS path there is a single *top provider* — walking away
  from it in either direction descends the provider→customer hierarchy, and
* a peer-to-peer edge can only ever appear *adjacent to* the top provider
  (there is at most one peer step, at the top of the hill).

The implementation here follows that structure:

1. compute each AS's degree from the paths (Phase 1),
2. for every adjacent pair in every path, record a *transit vote* saying
   "the AS nearer the top provider is a provider of the other"; votes from
   pairs adjacent to the top provider are kept separate because they are the
   ambiguous ones (Phase 2),
3. classify each edge: confident transit votes give provider-to-customer (or
   sibling when both directions are confidently observed); edges whose only
   evidence is top-adjacent are classified peer-to-peer when the two degrees
   are comparable, otherwise provider-to-customer toward the larger AS
   (Phase 3).

The output is an :class:`~repro.topology.graph.AnnotatedASGraph` plus the
vote bookkeeping, so the validation module can report where and why the
inference disagrees with ground truth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import InferenceError
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.topology.graph import AnnotatedASGraph, Relationship


@dataclass
class InferredRelationships:
    """Result of a relationship-inference run.

    Attributes:
        graph: the inferred annotated AS graph.
        degrees: the AS degree map computed from the paths.
        transit_votes: ``(provider, customer) -> count`` of confident
            (non-top-adjacent) transit observations.
        ambiguous_votes: the same counts for top-adjacent observations.
    """

    graph: AnnotatedASGraph
    degrees: dict[ASN, int] = field(default_factory=dict)
    transit_votes: Counter = field(default_factory=Counter)
    ambiguous_votes: Counter = field(default_factory=Counter)

    def relationship(self, asn: ASN, neighbor: ASN) -> Relationship | None:
        """Convenience passthrough to the inferred graph."""
        return self.graph.relationship(asn, neighbor)


class GaoInference:
    """Infer AS relationships from a collection of AS paths.

    Args:
        peer_degree_ratio: two ASes joined by an edge whose only evidence is
            top-adjacent are called peers when the ratio of their degrees is
            at most this value (Gao's ``R`` parameter).
        sibling_threshold: minimum number of confident votes in *both*
            directions required to call an edge sibling-to-sibling (Gao's
            ``L`` parameter).
    """

    def __init__(self, peer_degree_ratio: float = 8.0, sibling_threshold: int = 2) -> None:
        if peer_degree_ratio < 1.0:
            raise InferenceError("peer_degree_ratio must be >= 1")
        if sibling_threshold < 1:
            raise InferenceError("sibling_threshold must be >= 1")
        self.peer_degree_ratio = peer_degree_ratio
        self.sibling_threshold = sibling_threshold

    # -- public API ---------------------------------------------------------

    def infer(self, paths: Iterable[ASPath | Iterable[ASN]]) -> InferredRelationships:
        """Run the inference over the given AS paths.

        Paths may be :class:`ASPath` objects or plain AS-number sequences;
        prepending is collapsed before processing.  Paths with fewer than two
        distinct ASes contribute nothing.
        """
        return self.infer_weighted(
            ((path if isinstance(path, ASPath) else ASPath(path)).deduplicate().asns, 1)
            for path in paths
        )

    def infer_weighted(
        self, weighted_paths: Iterable[tuple[Iterable[ASN], int]]
    ) -> InferredRelationships:
        """Run the inference over ``(collapsed path, multiplicity)`` pairs.

        The paths are taken as given: they must already be collapsed (no
        prepending), as the measurement index's interned paths are.  Every
        phase of the algorithm is either set-valued (degrees, adjacency) or
        linear in path multiplicity (transit/ambiguous votes), so feeding
        each *distinct* path once with its occurrence count yields exactly
        the result of :meth:`infer` over the expanded collection — while
        doing the per-path top-provider scan only once per distinct path.
        Callers holding columnar routing tables (interned path ids) should
        prefer this entry point.
        """
        counts: Counter = Counter()
        for path, weight in weighted_paths:
            path = tuple(path)
            if weight > 0 and len(path) >= 2:
                counts[path] += weight
        if not counts:
            raise InferenceError("no usable AS paths supplied")
        degrees = self._compute_degrees(counts)
        transit_votes, ambiguous_votes, adjacency = self._vote(counts, degrees)
        graph = self._classify(degrees, transit_votes, ambiguous_votes, adjacency)
        return InferredRelationships(
            graph=graph,
            degrees=degrees,
            transit_votes=transit_votes,
            ambiguous_votes=ambiguous_votes,
        )

    # -- phases ----------------------------------------------------------------

    @staticmethod
    def _compute_degrees(paths: Iterable[tuple[ASN, ...]]) -> dict[ASN, int]:
        neighbors: dict[ASN, set[ASN]] = {}
        for path in paths:
            for left, right in zip(path, path[1:]):
                neighbors.setdefault(left, set()).add(right)
                neighbors.setdefault(right, set()).add(left)
        return {asn: len(adjacent) for asn, adjacent in neighbors.items()}

    def _vote(
        self, counts: Counter, degrees: dict[ASN, int]
    ) -> tuple[Counter, Counter, set[frozenset[ASN]]]:
        transit_votes: Counter = Counter()
        ambiguous_votes: Counter = Counter()
        adjacency: set[frozenset[ASN]] = set()
        for path, weight in counts.items():
            top_index = max(range(len(path)), key=lambda i: degrees[path[i]])
            for index, (left, right) in enumerate(zip(path, path[1:])):
                adjacency.add(frozenset((left, right)))
                # The endpoint nearer the top provider is the provider.
                if index < top_index:
                    provider, customer = right, left
                else:
                    provider, customer = left, right
                if index == top_index - 1 or index == top_index:
                    ambiguous_votes[(provider, customer)] += weight
                else:
                    transit_votes[(provider, customer)] += weight
        return transit_votes, ambiguous_votes, adjacency

    def _classify(
        self,
        degrees: dict[ASN, int],
        transit_votes: Counter,
        ambiguous_votes: Counter,
        adjacency: set[frozenset[ASN]],
    ) -> AnnotatedASGraph:
        graph = AnnotatedASGraph()
        for asn in degrees:
            graph.add_as(asn)
        for edge in adjacency:
            left, right = sorted(edge)
            left_provides = transit_votes[(left, right)]
            right_provides = transit_votes[(right, left)]
            if left_provides and right_provides:
                if (
                    left_provides >= self.sibling_threshold
                    and right_provides >= self.sibling_threshold
                ):
                    graph.add_sibling(left, right)
                elif left_provides > right_provides:
                    graph.add_provider_customer(left, right)
                elif right_provides > left_provides:
                    graph.add_provider_customer(right, left)
                else:
                    graph.add_sibling(left, right)
                continue
            if left_provides:
                graph.add_provider_customer(left, right)
                continue
            if right_provides:
                graph.add_provider_customer(right, left)
                continue
            # Only ambiguous (top-adjacent) evidence: peer when degrees are
            # comparable, otherwise the larger AS is the provider.
            left_degree = max(degrees.get(left, 1), 1)
            right_degree = max(degrees.get(right, 1), 1)
            ratio = max(left_degree, right_degree) / min(left_degree, right_degree)
            if ratio <= self.peer_degree_ratio:
                graph.add_peer_peer(left, right)
            else:
                left_ambiguous = ambiguous_votes[(left, right)]
                right_ambiguous = ambiguous_votes[(right, left)]
                if left_ambiguous == right_ambiguous:
                    provider = left if left_degree >= right_degree else right
                else:
                    provider = left if left_ambiguous > right_ambiguous else right
                customer = right if provider == left else left
                graph.add_provider_customer(provider, customer)
        return graph
