"""Accuracy measurement of inferred relationships.

Section 4.3 of the paper bounds the error introduced by inferred AS
relationships: for nine ASes, the relationships with their neighbors are
verified (via BGP communities) and 94–99% are found correct (Table 4).  The
functions here produce the same kind of measurements against any reference —
the generator's ground truth or community-derived evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.asn import ASN
from repro.topology.graph import AnnotatedASGraph, Relationship


@dataclass
class RelationshipAccuracy:
    """Edge-level agreement between an inferred graph and a reference graph.

    Attributes:
        total_edges: number of reference edges that also exist in the
            inferred graph.
        correct_edges: how many of those carry the same annotation.
        missing_edges: reference edges absent from the inferred graph.
        extra_edges: inferred edges absent from the reference graph.
        confusion: mapping ``(reference, inferred)`` relationship pair →
            count, for error analysis.
        per_as: for each AS, ``(verified_neighbors, total_neighbors)`` —
            the Table 4 style breakdown.
    """

    total_edges: int = 0
    correct_edges: int = 0
    missing_edges: int = 0
    extra_edges: int = 0
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)
    per_as: dict[ASN, tuple[int, int]] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Fraction of compared edges whose annotation matches."""
        if self.total_edges == 0:
            return 0.0
        return self.correct_edges / self.total_edges


def _edge_key(relationship: Relationship, left: ASN, right: ASN) -> str:
    """Canonical label of an edge annotation for the confusion matrix."""
    if relationship is Relationship.CUSTOMER:
        return f"p2c:{left}>{right}"
    if relationship is Relationship.PROVIDER:
        return f"p2c:{right}>{left}"
    if relationship is Relationship.PEER:
        return "p2p"
    return "s2s"


def compare_with_ground_truth(
    inferred: AnnotatedASGraph,
    reference: AnnotatedASGraph,
    focus_ases: list[ASN] | None = None,
) -> RelationshipAccuracy:
    """Compare an inferred graph against a reference annotated graph.

    Only edges present in the reference graph are graded (extra inferred
    edges are counted separately); an edge is correct when the relationship
    between the same pair of ASes carries the same annotation, including the
    orientation of provider-to-customer edges.

    Args:
        inferred: the graph produced by an inference algorithm.
        reference: the ground-truth (or community-verified) graph.
        focus_ases: when given, the per-AS breakdown is restricted to these
            ASes (the paper reports it for 9 specific ASes in Table 4).
    """
    accuracy = RelationshipAccuracy()
    focus = set(focus_ases) if focus_ases is not None else None

    seen: set[frozenset[ASN]] = set()
    for asn in reference.ases():
        for neighbor in reference.neighbors(asn):
            pair = frozenset((asn, neighbor))
            if pair in seen:
                continue
            seen.add(pair)
            reference_rel = reference.relationship(asn, neighbor)
            inferred_rel = inferred.relationship(asn, neighbor)
            if inferred_rel is None:
                accuracy.missing_edges += 1
                continue
            accuracy.total_edges += 1
            reference_label = _edge_key(reference_rel, asn, neighbor)
            inferred_label = _edge_key(inferred_rel, asn, neighbor)
            key = (reference_label.split(":")[0], inferred_label.split(":")[0])
            matched = reference_label == inferred_label
            if matched:
                accuracy.correct_edges += 1
            accuracy.confusion[key] = accuracy.confusion.get(key, 0) + (0 if matched else 1)

    inferred_seen: set[frozenset[ASN]] = set()
    for asn in inferred.ases():
        for neighbor in inferred.neighbors(asn):
            pair = frozenset((asn, neighbor))
            if pair in inferred_seen:
                continue
            inferred_seen.add(pair)
            if reference.relationship(asn, neighbor) is None:
                accuracy.extra_edges += 1

    for asn in (focus if focus is not None else reference.ases()):
        neighbors = reference.neighbors(asn)
        if not neighbors:
            continue
        verified = 0
        for neighbor in neighbors:
            reference_rel = reference.relationship(asn, neighbor)
            inferred_rel = inferred.relationship(asn, neighbor)
            if inferred_rel is None or reference_rel is None:
                continue
            if _edge_key(reference_rel, asn, neighbor) == _edge_key(inferred_rel, asn, neighbor):
                verified += 1
        accuracy.per_as[asn] = (verified, len(neighbors))
    return accuracy
