"""Tier classification of ASes.

The paper classifies ASes into tiers "using the method described in [8]"
(Subramanian et al., *Characterizing the Internet hierarchy from multiple
vantage points*).  The essence of that method is:

* **Tier 1 (dense core)** — a clique-like set of large, provider-free ASes
  that peer with each other,
* **Tier 2 / transit core** — ASes that have customers and buy transit from
  (or peer near) the core,
* lower tiers — smaller transit networks,
* **stubs** — ASes with no customers.

Exact reproduction of the Subramanian heuristics is not required by the
paper's pipeline (tiers are only used to pick which providers to study and to
describe Tables 2/3/5), so :func:`classify_tiers` implements the structural
definition above on the annotated graph: provider-free ASes that peer among
themselves form Tier 1, and every other AS sits one level below its highest
provider, with stubs reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.asn import ASN
from repro.topology.graph import AnnotatedASGraph


@dataclass
class TierClassification:
    """Result of classifying every AS in a graph into tiers.

    Attributes:
        tiers: mapping from AS to its tier number (1 is the core).
        tier1: the ASes classified as Tier 1.
        stubs: ASes with no customers (they still get a tier number).
    """

    tiers: dict[ASN, int] = field(default_factory=dict)
    tier1: set[ASN] = field(default_factory=set)
    stubs: set[ASN] = field(default_factory=set)

    def tier_of(self, asn: ASN) -> int:
        """Return the tier of an AS (raises ``KeyError`` for unknown ASes)."""
        return self.tiers[asn]

    @property
    def depth(self) -> int:
        """The number of the deepest tier."""
        return max(self.tiers.values(), default=0)


def classify_tiers(graph: AnnotatedASGraph, max_tier: int = 5) -> TierClassification:
    """Classify every AS of the annotated graph into tiers.

    Tier 1 contains ASes with no providers and at least one peer or customer
    (an isolated AS with no links at all is put in the deepest tier).  Every
    other AS is assigned ``1 + min(tier of its providers)``, capped at
    ``max_tier``.  The computation is a breadth-first descent along
    provider-to-customer edges, so it is linear in the number of edges.
    """
    classification = TierClassification()
    # Tier 1: provider-free ASes that are not isolated.
    for asn in graph.ases():
        if not graph.providers_of(asn) and graph.degree(asn) > 0:
            classification.tier1.add(asn)
            classification.tiers[asn] = 1
    # Descend customer edges from the core.
    frontier = sorted(classification.tier1)
    while frontier:
        next_frontier: list[ASN] = []
        for provider in frontier:
            provider_tier = classification.tiers[provider]
            for customer in graph.customers_of(provider):
                proposed = min(provider_tier + 1, max_tier)
                known = classification.tiers.get(customer)
                if known is None or proposed < known:
                    classification.tiers[customer] = proposed
                    next_frontier.append(customer)
        frontier = next_frontier
    # Anything never reached (isolated ASes, or customer-only islands) goes
    # to the deepest tier.
    for asn in graph.ases():
        classification.tiers.setdefault(asn, max_tier)
        if graph.is_stub(asn):
            classification.stubs.add(asn)
    return classification
