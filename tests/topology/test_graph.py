"""Unit tests for the annotated AS graph."""

import pytest
from helpers import is_customer_of

from repro.exceptions import TopologyError
from repro.net.aspath import ASPath
from repro.topology.graph import AnnotatedASGraph, Relationship


@pytest.fixture
def paper_figure1_graph():
    """The annotated AS graph of paper Fig. 1.

    AS2 is the provider of AS4 (and AS5); AS1 is a provider of AS2 and AS3;
    AS3 peers with AS4; AS4 is the provider of AS6.
    """
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[(1, 2), (1, 3), (2, 4), (2, 5), (4, 6)],
        peer_peer=[(3, 4)],
    )
    return graph


class TestConstruction:
    def test_relationships_are_symmetric(self, paper_figure1_graph):
        graph = paper_figure1_graph
        assert graph.relationship(2, 4) is Relationship.CUSTOMER
        assert graph.relationship(4, 2) is Relationship.PROVIDER
        assert graph.relationship(3, 4) is Relationship.PEER
        assert graph.relationship(4, 3) is Relationship.PEER

    def test_add_sibling(self):
        graph = AnnotatedASGraph()
        graph.add_sibling(1, 2)
        assert graph.relationship(1, 2) is Relationship.SIBLING
        assert graph.relationship(2, 1) is Relationship.SIBLING

    def test_self_loops_rejected(self):
        graph = AnnotatedASGraph()
        with pytest.raises(TopologyError):
            graph.add_provider_customer(1, 1)
        with pytest.raises(TopologyError):
            graph.add_peer_peer(2, 2)
        with pytest.raises(TopologyError):
            graph.add_sibling(3, 3)

    def test_counts_and_degree(self, paper_figure1_graph):
        graph = paper_figure1_graph
        assert len(graph) == 6
        assert graph.edge_count() == 6
        assert graph.degree(2) == 3
        assert graph.degree(6) == 1


class TestNeighborQueries:
    def test_customers_providers_peers(self, paper_figure1_graph):
        graph = paper_figure1_graph
        assert sorted(graph.customers_of(2)) == [4, 5]
        assert graph.providers_of(4) == [2]
        assert graph.peers_of(4) == [3]
        assert graph.providers_of(1) == []

    def test_is_provider_and_peer(self, paper_figure1_graph):
        graph = paper_figure1_graph
        assert graph.relationship(2, 4) is Relationship.CUSTOMER
        assert graph.relationship(4, 2) is not Relationship.CUSTOMER
        assert graph.relationship(3, 4) is Relationship.PEER
        assert graph.relationship(1, 4) is not Relationship.PEER

    def test_multihoming_and_stub(self):
        graph = AnnotatedASGraph.from_edges(
            provider_customer=[(1, 3), (2, 3), (1, 4)]
        )
        assert graph.is_multihomed(3)
        assert not graph.is_multihomed(4)
        assert graph.is_stub(3)
        assert not graph.is_stub(1)

    def test_edges_iteration_orients_transit(self, paper_figure1_graph):
        edges = list(paper_figure1_graph.edges())
        assert len(edges) == 6
        transit = [e for e in edges if e.relationship is Relationship.CUSTOMER]
        assert all(
            paper_figure1_graph.relationship(e.provider, e.customer) is Relationship.CUSTOMER
            for e in transit
        )
        peer_edges = [e for e in edges if e.relationship is Relationship.PEER]
        assert len(peer_edges) == 1
        assert peer_edges[0].other(3) == 4
        with pytest.raises(TopologyError):
            peer_edges[0].other(99)


class TestCustomerCone:
    def test_customer_cone(self, paper_figure1_graph):
        graph = paper_figure1_graph
        assert graph.customer_cone(1) == {2, 3, 4, 5, 6}
        assert graph.customer_cone(2) == {4, 5, 6}
        assert graph.customer_cone(6) == set()

    def test_customer_cone_unknown_as(self, paper_figure1_graph):
        with pytest.raises(TopologyError):
            paper_figure1_graph.customer_cone(99)

    def test_is_customer_of(self, paper_figure1_graph):
        graph = paper_figure1_graph
        assert is_customer_of(graph, 6, 1)  # indirect
        assert is_customer_of(graph, 4, 2)  # direct
        assert not is_customer_of(graph, 3, 2)  # unrelated branch
        assert not is_customer_of(graph, 1, 4)  # inverse direction
        assert not is_customer_of(graph, 99, 1)

    def test_find_customer_path(self, paper_figure1_graph):
        graph = paper_figure1_graph
        path = graph.find_customer_path(1, 6)
        assert path is not None
        assert path[0] == 1 and path[-1] == 6
        assert all(
            graph.relationship(left, right) is Relationship.CUSTOMER
            for left, right in zip(path, path[1:])
        )
        assert graph.find_customer_path(2, 3) is None


class TestValleyFree:
    def test_customer_path_is_valley_free(self, paper_figure1_graph):
        assert paper_figure1_graph.is_valley_free([1, 2, 4, 6])

    def test_uphill_then_downhill_is_valley_free(self, paper_figure1_graph):
        # 5 -> 2 (provider) then 2 -> 4 (customer): seen from receiver 5,
        # the path 5 2 4 means 5 learned it from 2... we validate receiver->origin order.
        assert paper_figure1_graph.is_valley_free([5, 2, 4])

    def test_peer_in_middle_is_valley_free(self, paper_figure1_graph):
        # Receiver 2 -> customer 4 -> peer 3? Path [2, 4, 3] from receiver to origin:
        # origin 3 announces to peer 4, 4 announces peer route to provider 2 -> valley!
        assert not paper_figure1_graph.is_valley_free([2, 4, 3])

    def test_valley_path_rejected(self, paper_figure1_graph):
        # Origin 5 announces to provider 2; 2 would have to announce a
        # provider... wait path [4, 2, 1]: origin 1, 1 announces to customer 2
        # (fine), 2 announces provider route to customer 4 (fine, downhill).
        assert paper_figure1_graph.is_valley_free([4, 2, 1])
        # Path [6, 4, 3]: origin 3 announces to peer 4, 4 announces peer route
        # down to customer 6 — that is allowed (peer then downhill).
        assert paper_figure1_graph.is_valley_free([6, 4, 3])
        # Path [3, 4, 6] read receiver-first: origin 6 announces to provider 4
        # (uphill), then 4 announces customer route to peer 3 — allowed.
        assert paper_figure1_graph.is_valley_free([3, 4, 6])
        # A genuine valley: [5, 2, 1] reversed is 1 -> 2 (downhill to customer)
        # then 2 -> 5 (downhill again) — fine.  Use two peers instead:
        graph = AnnotatedASGraph.from_edges(
            provider_customer=[(1, 3)], peer_peer=[(1, 2), (2, 4)]
        )
        # origin 4 announces to peer 2, 2 would announce peer route to peer 1: invalid.
        assert not graph.is_valley_free([1, 2, 4])

    def test_unknown_edge_rejected(self, paper_figure1_graph):
        assert not paper_figure1_graph.is_valley_free([1, 6])

    def test_single_as_and_aspath_input(self, paper_figure1_graph):
        assert paper_figure1_graph.is_valley_free([4])
        assert paper_figure1_graph.is_valley_free(ASPath.parse("1 2 4 6"))
        assert paper_figure1_graph.is_valley_free(ASPath.parse("1 1 2 2 4 6"))


class TestConversion:
    def test_repr(self, paper_figure1_graph):
        assert "ases=6" in repr(paper_figure1_graph)
