"""Unit tests for tier classification."""

from repro.topology.graph import AnnotatedASGraph
from repro.topology.hierarchy import classify_tiers


def small_hierarchy():
    """Two Tier-1s peering, each with a Tier-2 customer, and stubs below."""
    return AnnotatedASGraph.from_edges(
        provider_customer=[(1, 10), (2, 20), (10, 100), (20, 200), (10, 20)],
        peer_peer=[(1, 2)],
    )


class TestClassifyTiers:
    def test_tier1_is_provider_free(self):
        classification = classify_tiers(small_hierarchy())
        assert classification.tier1 == {1, 2}
        assert classification.tier_of(1) == 1

    def test_descending_levels(self):
        classification = classify_tiers(small_hierarchy())
        assert classification.tier_of(10) == 2
        assert classification.tier_of(100) == 3
        # AS20 is both a customer of AS2 (tier 2) and of AS10 (tier 3 path);
        # the minimum (closest to the core) wins.
        assert classification.tier_of(20) == 2

    def test_stubs_identified(self):
        classification = classify_tiers(small_hierarchy())
        assert 100 in classification.stubs
        assert 200 in classification.stubs
        assert 10 not in classification.stubs

    def test_all_ases_are_classified(self):
        graph = small_hierarchy()
        classification = classify_tiers(graph)
        assert set(classification.tiers) == set(graph.ases())

    def test_isolated_as_goes_to_deepest_tier(self):
        graph = small_hierarchy()
        graph.add_as(999)
        classification = classify_tiers(graph, max_tier=5)
        assert classification.tier_of(999) == 5

    def test_max_tier_caps_depth(self):
        chain = AnnotatedASGraph.from_edges(
            provider_customer=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
            peer_peer=[(1, 8)],
        )
        classification = classify_tiers(chain, max_tier=3)
        assert classification.depth == 3
        assert classification.tier_of(7) == 3

    def test_ases_in_tier(self):
        classification = classify_tiers(small_hierarchy())
        by_tier = {}
        for asn, tier in classification.tiers.items():
            by_tier.setdefault(tier, []).append(asn)
        assert {tier: sorted(ases) for tier, ases in by_tier.items()} == {
            1: [1, 2],
            2: [10, 20],
            3: [100, 200],
        }

    def test_empty_graph(self):
        classification = classify_tiers(AnnotatedASGraph())
        assert classification.tiers == {}
        assert classification.depth == 0
