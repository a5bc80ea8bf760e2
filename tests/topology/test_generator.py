"""Unit tests for the synthetic Internet generator."""

import pytest
from helpers import stub_ases

from repro.exceptions import TopologyError
from repro.topology.generator import GeneratorParameters, InternetGenerator
from repro.topology.graph import Relationship


@pytest.fixture(scope="module")
def small_internet():
    parameters = GeneratorParameters(
        seed=7,
        tier1_count=4,
        tier2_count=10,
        tier3_count=20,
        stub_count=120,
    )
    return InternetGenerator(parameters).generate()


class TestParameters:
    def test_defaults_are_valid(self):
        GeneratorParameters().validate()

    def test_rejects_tiny_clique(self):
        with pytest.raises(TopologyError):
            GeneratorParameters(tier1_count=1).validate()

    def test_rejects_bad_probability(self):
        with pytest.raises(TopologyError):
            GeneratorParameters(stub_multihoming_probability=1.5).validate()

    def test_rejects_negative_counts(self):
        with pytest.raises(TopologyError):
            GeneratorParameters(stub_count=-1).validate()

    def test_rejects_zero_providers(self):
        with pytest.raises(TopologyError):
            GeneratorParameters(max_stub_providers=0).validate()


class TestTopologyShape:
    def test_all_ases_present(self, small_internet):
        parameters = small_internet.parameters
        expected = (
            parameters.tier1_count
            + parameters.tier2_count
            + parameters.tier3_count
            + parameters.stub_count
        )
        assert len(small_internet.graph) == expected

    def test_tier1_is_clique_and_provider_free(self, small_internet):
        tier1 = small_internet.tier1
        assert len(tier1) == small_internet.parameters.tier1_count
        graph = small_internet.graph
        for asn in tier1:
            assert graph.providers_of(asn) == []
            for other in tier1:
                if other != asn:
                    assert graph.relationship(asn, other) is Relationship.PEER

    def test_every_non_tier1_as_has_a_provider(self, small_internet):
        graph = small_internet.graph
        tier1 = set(small_internet.tier1)
        for asn in graph.ases():
            if asn not in tier1:
                assert graph.providers_of(asn), f"AS{asn} has no provider"

    def test_stubs_have_no_customers(self, small_internet):
        graph = small_internet.graph
        for stub in stub_ases(small_internet):
            assert graph.customers_of(stub) == []

    def test_some_stubs_are_multihomed(self, small_internet):
        graph = small_internet.graph
        stubs = stub_ases(small_internet)
        multihomed = [s for s in stubs if graph.is_multihomed(s)]
        assert 0 < len(multihomed) < len(stubs)

    def test_every_as_reaches_tier1_via_providers(self, small_internet):
        graph = small_internet.graph
        tier1 = set(small_internet.tier1)
        for asn in graph.ases():
            current = {asn}
            seen = set()
            while current and not (current & tier1):
                seen |= current
                current = {
                    provider
                    for member in current
                    for provider in graph.providers_of(member)
                } - seen
            assert current & tier1 or asn in tier1


class TestAddressPlan:
    def test_every_stub_originates_prefixes(self, small_internet):
        for stub in stub_ases(small_internet):
            assert small_internet.prefixes_of(stub)

    def test_prefix_ownership_lookup(self, small_internet):
        stub = stub_ases(small_internet)[0]
        prefix = small_internet.prefixes_of(stub)[0]
        owners = [
            asn
            for asn, prefixes in small_internet.originated.items()
            if prefix in prefixes
        ]
        assert owners == [stub]

    def test_non_split_prefixes_do_not_overlap_across_ases(self, small_internet):
        split_specifics = {
            specific
            for _, specifics in small_internet.split_pairs
            for specific in specifics
        }
        provider_assigned = {block.prefix for block in small_internet.provider_assigned}
        owners = {}
        for asn, prefixes in small_internet.originated.items():
            for prefix in prefixes:
                if prefix in split_specifics or prefix in provider_assigned:
                    continue
                for other_prefix, other_asn in owners.items():
                    if other_asn != asn:
                        assert not prefix.contains(other_prefix)
                        assert not other_prefix.contains(prefix)
                owners[prefix] = asn

    def test_split_pairs_recorded_and_announced(self, small_internet):
        for original, specifics in small_internet.split_pairs:
            (originated,) = [
                prefixes
                for prefixes in small_internet.originated.values()
                if original in prefixes
            ]
            for specific in specifics:
                assert specific in originated
                assert original.contains(specific)

    def test_provider_assigned_blocks_are_inside_provider_space(self, small_internet):
        allocator = small_internet.allocator
        for block in small_internet.provider_assigned:
            parent_prefixes = allocator.prefixes_of(block.parent_owner)
            assert any(parent.contains(block.prefix) for parent in parent_prefixes)


class TestDeterminism:
    def test_same_seed_same_internet(self):
        params = GeneratorParameters(seed=42, tier1_count=3, tier2_count=5,
                                     tier3_count=8, stub_count=30)
        first = InternetGenerator(params).generate()
        second = InternetGenerator(params).generate()
        assert sorted(first.graph.ases()) == sorted(second.graph.ases())
        assert first.originated == second.originated
        first_edges = {(e.provider, e.customer, e.relationship) for e in first.graph.edges()}
        second_edges = {(e.provider, e.customer, e.relationship) for e in second.graph.edges()}
        assert first_edges == second_edges

    def test_different_seed_different_internet(self):
        base = GeneratorParameters(seed=1, tier1_count=3, tier2_count=5,
                                   tier3_count=8, stub_count=30)
        other = GeneratorParameters(seed=2, tier1_count=3, tier2_count=5,
                                    tier3_count=8, stub_count=30)
        first = InternetGenerator(base).generate()
        second = InternetGenerator(other).generate()
        first_edges = {(e.provider, e.customer, e.relationship) for e in first.graph.edges()}
        second_edges = {(e.provider, e.customer, e.relationship) for e in second.graph.edges()}
        assert first_edges != second_edges

    def test_repr(self, small_internet):
        assert "ases=" in repr(small_internet)
