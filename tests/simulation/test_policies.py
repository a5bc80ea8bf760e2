"""Unit tests for per-AS policies and the policy generator."""

import pytest
from helpers import (
    all_selectively_announced,
    is_typical,
    scoped_origins,
    selective_origins,
    tagging_ases,
)

from repro.bgp.attributes import Community
from repro.exceptions import PolicyError
from repro.net.prefix import Prefix
from repro.simulation.policies import (
    ASPolicy,
    ATYPICAL_SCHEME,
    CommunityPlan,
    LocalPrefScheme,
    PolicyGenerator,
    PolicyParameters,
    scoped_community,
)
from repro.topology.generator import GeneratorParameters, InternetGenerator
from repro.topology.graph import Relationship


@pytest.fixture(scope="module")
def small_internet():
    return InternetGenerator(
        GeneratorParameters(seed=11, tier1_count=4, tier2_count=8, tier3_count=16, stub_count=80)
    ).generate()


@pytest.fixture(scope="module")
def assignment(small_internet):
    generator = PolicyGenerator(PolicyParameters(seed=5))
    return generator.generate(small_internet, looking_glass_ases=small_internet.tier1[:2])


class TestLocalPrefScheme:
    def test_default_is_typical(self):
        scheme = LocalPrefScheme()
        assert is_typical(scheme)
        assert scheme.value_for(Relationship.CUSTOMER) > scheme.value_for(Relationship.PEER)
        assert scheme.value_for(Relationship.PEER) > scheme.value_for(Relationship.PROVIDER)

    def test_atypical_scheme(self):
        assert not is_typical(ATYPICAL_SCHEME)

    def test_sibling_value(self):
        assert LocalPrefScheme().value_for(Relationship.SIBLING) == 105


class TestCommunityPlan:
    def test_ranges_by_relationship(self):
        plan = CommunityPlan(asn=12859)
        customer = plan.community_for(Relationship.CUSTOMER)
        peer = plan.community_for(Relationship.PEER)
        provider = plan.community_for(Relationship.PROVIDER)
        assert customer.asn == 12859
        assert plan.relationship_of(customer) is Relationship.CUSTOMER
        assert plan.relationship_of(peer) is Relationship.PEER
        assert plan.relationship_of(provider) is Relationship.PROVIDER

    def test_neighbor_index_stays_in_range(self):
        plan = CommunityPlan(asn=12859)
        for index in range(0, 300, 7):
            community = plan.community_for(Relationship.PEER, neighbor_index=index)
            assert plan.relationship_of(community) is Relationship.PEER

    def test_foreign_community_is_unknown(self):
        plan = CommunityPlan(asn=12859)
        assert plan.relationship_of(Community(3549, 1000)) is None

    def test_out_of_range_value_is_unknown(self):
        plan = CommunityPlan(asn=12859)
        assert plan.relationship_of(Community(12859, 9999)) is None


class TestASPolicy:
    def test_import_local_pref_priority(self):
        prefix = Prefix.parse("10.1.0.0/16")
        policy = ASPolicy(asn=1)
        policy.neighbor_local_pref[42] = 70
        policy.prefix_local_pref[prefix] = 60
        # Prefix override wins over neighbor override.
        assert policy.import_local_pref(42, Relationship.CUSTOMER, prefix) == 60
        # Neighbor override wins over the scheme.
        other = Prefix.parse("10.2.0.0/16")
        assert policy.import_local_pref(42, Relationship.CUSTOMER, other) == 70
        # Scheme applies otherwise.
        assert policy.import_local_pref(7, Relationship.PEER, other) == 100

    def test_providers_for_prefix_defaults_to_all(self):
        prefix = Prefix.parse("10.1.0.0/16")
        policy = ASPolicy(asn=1)
        assert policy.providers_for_prefix(prefix, [10, 20]) == {10, 20}

    def test_selective_announcement_subset(self):
        prefix = Prefix.parse("10.1.0.0/16")
        policy = ASPolicy(asn=1)
        policy.announce_to_providers[prefix] = frozenset({10})
        assert policy.providers_for_prefix(prefix, [10, 20]) == {10}

    def test_full_announcement_is_not_selective(self):
        prefix = Prefix.parse("10.1.0.0/16")
        policy = ASPolicy(asn=1)
        policy.announce_to_providers[prefix] = frozenset({10, 20})
        assert policy.providers_for_prefix(prefix, [10, 20]) == {10, 20}
        assert policy.scoped_providers_for_prefix(prefix) == set()

    def test_scoped_prefixes_are_selective(self):
        prefix = Prefix.parse("10.1.0.0/16")
        policy = ASPolicy(asn=1)
        policy.scoped_to_providers[prefix] = frozenset({10})
        assert policy.scoped_providers_for_prefix(prefix) == {10}

    def test_peer_withholding(self):
        prefix = Prefix.parse("10.1.0.0/16")
        policy = ASPolicy(asn=1)
        policy.withhold_from_peers[prefix] = frozenset({7})
        assert policy.peers_for_prefix(prefix, [7, 8]) == {8}
        assert policy.peers_for_prefix(Prefix.parse("10.2.0.0/16"), [7, 8]) == {7, 8}

    def test_scoped_community_helper(self):
        community = scoped_community(3549)
        assert community.asn == 3549


class TestPolicyParameters:
    def test_defaults_valid(self):
        PolicyParameters().validate()

    def test_rejects_bad_probability(self):
        with pytest.raises(PolicyError):
            PolicyParameters(selective_announcement_probability=2.0).validate()


class TestPolicyGenerator:
    def test_every_as_gets_a_policy(self, small_internet, assignment):
        assert set(assignment.policies) == set(small_internet.graph.ases())

    def test_most_schemes_are_typical(self, small_internet, assignment):
        typical = sum(
            1 for policy in assignment.policies.values() if is_typical(policy.local_pref)
        )
        assert typical / len(assignment.policies) > 0.9

    def test_selective_origins_are_multihomed(self, small_internet, assignment):
        graph = small_internet.graph
        selective = selective_origins(assignment)
        assert selective, "expected some selective announcers"
        for origin, prefixes in selective.items():
            assert len(graph.providers_of(origin)) >= 2
            assert prefixes
            policy = assignment.policies[origin]
            for prefix in prefixes:
                providers = policy.providers_for_prefix(prefix, graph.providers_of(origin))
                scoped = policy.scoped_providers_for_prefix(prefix)
                assert (providers | scoped) != set(graph.providers_of(origin)) or scoped

    def test_scoped_origins_subset_of_selective(self, assignment):
        # A scoped prefix is announced plainly to no provider at all.
        scoped = scoped_origins(assignment)
        assert scoped, "expected some scoped announcers"
        for origin, prefixes in scoped.items():
            policy = assignment.policies[origin]
            for prefix in prefixes:
                assert policy.announce_to_providers[prefix] == frozenset()

    def test_prefix_overrides_only_at_looking_glass_ases(self, small_internet, assignment):
        looking_glass = set(small_internet.tier1[:2])
        for asn, policy in assignment.policies.items():
            if policy.prefix_local_pref:
                assert asn in looking_glass

    def test_tagging_ases_have_plans(self, small_internet, assignment):
        tagging = tagging_ases(assignment)
        assert tagging
        for asn in tagging:
            assert assignment.policies[asn].community_plan.asn == asn
            assert small_internet.graph.degree(asn) >= 3

    def test_policy_for_unknown_as_returns_default(self, assignment):
        policy = assignment.policy_for(999_999)
        assert policy.asn == 999_999
        assert is_typical(policy.local_pref)

    def test_all_selectively_announced_union(self, assignment):
        union = all_selectively_announced(assignment)
        assert union
        for policy in assignment.policies.values():
            assert set(policy.announce_to_providers) <= union
            assert set(policy.scoped_to_providers) <= union

    def test_generation_is_deterministic(self, small_internet):
        first = PolicyGenerator(PolicyParameters(seed=5)).generate(small_internet)
        second = PolicyGenerator(PolicyParameters(seed=5)).generate(small_internet)
        assert first.policies == second.policies
