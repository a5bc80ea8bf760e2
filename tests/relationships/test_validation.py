"""Unit tests for relationship-accuracy measurement."""

from repro.relationships.validation import compare_with_ground_truth
from repro.topology.graph import AnnotatedASGraph


def ground_truth():
    return AnnotatedASGraph.from_edges(
        provider_customer=[(1, 10), (2, 20), (10, 100), (20, 200)],
        peer_peer=[(1, 2)],
    )


class TestCompareWithGroundTruth:
    def test_perfect_agreement(self):
        truth = ground_truth()
        accuracy = compare_with_ground_truth(truth, truth)
        assert accuracy.accuracy == 1.0
        assert accuracy.total_edges == 5
        assert accuracy.missing_edges == 0
        assert accuracy.extra_edges == 0

    def test_wrong_orientation_counted_incorrect(self):
        inferred = AnnotatedASGraph.from_edges(
            provider_customer=[(10, 1), (2, 20), (10, 100), (20, 200)],
            peer_peer=[(1, 2)],
        )
        accuracy = compare_with_ground_truth(inferred, ground_truth())
        assert accuracy.correct_edges == 4
        assert accuracy.total_edges == 5
        assert 0 < accuracy.accuracy < 1

    def test_peer_misclassified_as_transit(self):
        inferred = AnnotatedASGraph.from_edges(
            provider_customer=[(1, 10), (2, 20), (10, 100), (20, 200), (1, 2)],
        )
        accuracy = compare_with_ground_truth(inferred, ground_truth())
        assert accuracy.correct_edges == 4
        assert ("p2p", "p2c") in accuracy.confusion

    def test_missing_and_extra_edges(self):
        inferred = AnnotatedASGraph.from_edges(
            provider_customer=[(1, 10), (2, 20), (10, 100), (7, 8)],
        )
        accuracy = compare_with_ground_truth(inferred, ground_truth())
        assert accuracy.missing_edges == 2  # (20,200) and (1,2) absent
        assert accuracy.extra_edges == 1  # (7,8) not in reference

    def test_per_as_breakdown(self):
        inferred = AnnotatedASGraph.from_edges(
            provider_customer=[(10, 1), (2, 20), (10, 100), (20, 200)],
            peer_peer=[(1, 2)],
        )
        accuracy = compare_with_ground_truth(inferred, ground_truth(), focus_ases=[1, 2])
        # AS1 has neighbors 10 (wrong orientation) and 2 (correct peer).
        assert accuracy.per_as[1] == (1, 2)
        # AS2 has neighbors 20 and 1, both correct.
        assert accuracy.per_as[2] == (2, 2)

    def test_empty_reference(self):
        accuracy = compare_with_ground_truth(ground_truth(), AnnotatedASGraph())
        assert accuracy.accuracy == 0.0
        assert accuracy.total_edges == 0
