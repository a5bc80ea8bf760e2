"""Per-AS routing-policy configuration and the seeded policy generator.

The paper's findings are statements about the policies operators configure:

* import policies assign LOCAL_PREF by relationship, almost always in the
  *typical* order customer > peer > provider (Tables 2, 3), and almost always
  keyed on the next-hop AS rather than on the prefix (Fig. 2);
* export policies toward providers frequently announce prefixes to only a
  subset of providers — *selective announcement* — mostly for inbound
  traffic engineering (Tables 5–9), sometimes expressed as a community that
  tells the direct provider not to propagate the route further;
* export policies toward peers almost always announce everything (Table 10);
* many ASes tag routes with communities that encode the relationship with
  the neighbor the route was learned from (Appendix, Table 11).

:class:`ASPolicy` captures one AS's knobs for all of the above, and
:class:`PolicyGenerator` draws a complete policy assignment for a synthetic
Internet from a seeded random source, recording the ground truth (who
selectively announces what) so the inference pipeline can be validated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bgp.attributes import Community
from repro.exceptions import PolicyError
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import Relationship


@dataclass(frozen=True)
class LocalPrefScheme:
    """LOCAL_PREF values an AS assigns by neighbor relationship.

    The defaults encode the *typical* ordering the paper observes:
    customer routes above peer routes above provider routes.
    """

    customer: int = 110
    peer: int = 100
    provider: int = 90
    sibling: int = 105

    def value_for(self, relationship: Relationship) -> int:
        """Return the LOCAL_PREF for a route learned over the given relationship."""
        if relationship is Relationship.CUSTOMER:
            return self.customer
        if relationship is Relationship.PEER:
            return self.peer
        if relationship is Relationship.PROVIDER:
            return self.provider
        return self.sibling


@dataclass(frozen=True)
class CommunityPlan:
    """How an AS tags received routes with relationship communities.

    Mirrors the AS12859 example of Table 11: value ranges per relationship,
    with each neighbor assigned a value from its relationship's range.

    Attributes:
        asn: the AS defining the communities.
        customer_base: first value of the customer range.
        peer_base: first value of the peer range.
        provider_base: first value of the provider range.
        range_size: how many values each range spans.
    """

    asn: ASN
    customer_base: int = 4000
    peer_base: int = 1000
    provider_base: int = 2000
    range_size: int = 1000

    def community_for(self, relationship: Relationship, neighbor_index: int = 0) -> Community:
        """Return the community tagged on routes from a neighbor of the given kind."""
        base = self.base_for(relationship)
        offset = (neighbor_index * 10) % self.range_size
        return Community(self.asn, base + offset)

    def base_for(self, relationship: Relationship) -> int:
        """Return the first value of the range used for a relationship."""
        if relationship is Relationship.CUSTOMER:
            return self.customer_base
        if relationship is Relationship.PEER:
            return self.peer_base
        if relationship is Relationship.PROVIDER:
            return self.provider_base
        return self.customer_base

    def relationship_of(self, community: Community) -> Relationship | None:
        """Map a community value back to the relationship range it falls in.

        Returns ``None`` for communities defined by other ASes or values
        outside every range — this is the ground-truth decoder the Appendix
        verification is checked against.
        """
        if community.asn != self.asn:
            return None
        value = community.value
        for relationship in (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER):
            base = self.base_for(relationship)
            if base <= value < base + self.range_size:
                return relationship
        return None


#: Community value (per provider AS) that asks the provider not to propagate
#: the tagged route any further upward — the paper's Section 5.1.5 Case 3
#: "community tag indicating that the prefixes should not be announced
#: further".
SCOPED_ANNOUNCEMENT_VALUE = 65281


def scoped_community(provider: ASN) -> Community:
    """The community a customer attaches to scope a route to ``provider`` only."""
    return Community(provider % 65536, SCOPED_ANNOUNCEMENT_VALUE)


@dataclass
class ASPolicy:
    """The complete routing policy of one AS in the simulation.

    Attributes:
        asn: the AS this policy belongs to.
        local_pref: relationship → LOCAL_PREF scheme.
        neighbor_local_pref: per-neighbor overrides (models the atypical
            assignments of Tables 2/3).
        prefix_local_pref: per-prefix overrides (models the prefix-based
            assignments that make Fig. 2 less than 100%).
        announce_to_providers: for each originated prefix, the subset of
            direct providers it is announced to; prefixes absent from the map
            are announced to every provider.
        scoped_to_providers: originated prefixes announced to (some)
            providers with a "do not propagate further" community; maps
            prefix → set of providers that receive the scoped announcement.
        withhold_from_peers: originated prefixes *not* announced to the given
            peers (models the few peers of Table 10 that do not export
            everything).
        export_customer_prefixes_to: optional restriction applied by a
            *transit* AS: customer-learned prefixes are exported only to this
            subset of its providers (``None`` means no restriction).
        community_plan: relationship-tagging plan (``None`` when the AS does
            not tag).
        honor_scoped_communities: whether the AS, as a provider, honours the
            scoped-announcement community of its customers.
    """

    asn: ASN
    local_pref: LocalPrefScheme = field(default_factory=LocalPrefScheme)
    neighbor_local_pref: dict[ASN, int] = field(default_factory=dict)
    prefix_local_pref: dict[Prefix, int] = field(default_factory=dict)
    announce_to_providers: dict[Prefix, frozenset[ASN]] = field(default_factory=dict)
    scoped_to_providers: dict[Prefix, frozenset[ASN]] = field(default_factory=dict)
    withhold_from_peers: dict[Prefix, frozenset[ASN]] = field(default_factory=dict)
    export_customer_prefixes_to: frozenset[ASN] | None = None
    community_plan: CommunityPlan | None = None
    honor_scoped_communities: bool = True

    # -- import side ----------------------------------------------------------

    def import_local_pref(
        self, neighbor: ASN, relationship: Relationship, prefix: Prefix
    ) -> int:
        """LOCAL_PREF assigned to a route for ``prefix`` learned from ``neighbor``.

        Per-prefix overrides win over per-neighbor overrides, which win over
        the relationship scheme — matching how a route-map with a prefix-list
        clause ahead of the catch-all clause behaves.
        """
        if prefix in self.prefix_local_pref:
            return self.prefix_local_pref[prefix]
        if neighbor in self.neighbor_local_pref:
            return self.neighbor_local_pref[neighbor]
        return self.local_pref.value_for(relationship)

    # -- export side -------------------------------------------------------------

    def providers_for_prefix(self, prefix: Prefix, all_providers: list[ASN]) -> set[ASN]:
        """Providers that receive a plain announcement of an originated prefix."""
        if prefix in self.announce_to_providers:
            return set(self.announce_to_providers[prefix]) & set(all_providers)
        return set(all_providers)

    def scoped_providers_for_prefix(self, prefix: Prefix) -> set[ASN]:
        """Providers that receive a scoped (do-not-propagate) announcement."""
        return set(self.scoped_to_providers.get(prefix, frozenset()))

    def peers_for_prefix(self, prefix: Prefix, all_peers: list[ASN]) -> set[ASN]:
        """Peers that receive the announcement of an originated prefix."""
        withheld = self.withhold_from_peers.get(prefix, frozenset())
        return set(all_peers) - set(withheld)


@dataclass(frozen=True)
class PolicyParameters:
    """Knobs of the random policy assignment.

    Frozen (immutable and hashable) so a parameter set can key the
    :mod:`repro.session` stage cache; derive variants with
    :func:`dataclasses.replace`.

    Attributes:
        seed: seed for the policy generator's random source.
        atypical_scheme_probability: probability that an AS uses an atypical
            relationship scheme (peer or provider preferred over customer).
        atypical_neighbor_probability: probability that one of an AS's
            neighbors gets an overriding LOCAL_PREF that violates the
            typical order.
        prefix_based_fraction: fraction of prefixes (at Looking Glass ASes)
            whose LOCAL_PREF is set per prefix instead of per next-hop AS.
        selective_announcement_probability: probability that a multihomed
            origin AS selectively announces at least one prefix.
        selective_prefix_fraction: fraction of a selectively announcing AS's
            prefixes that are announced to a strict subset of providers.
        scoped_announcement_probability: probability that a selective
            announcement uses the "do not propagate further" community
            instead of simply omitting providers.
        transit_selective_probability: probability that a multihomed transit
            AS restricts the providers to which it exports customer routes.
        peer_withhold_probability: probability that an origin AS withholds
            some prefixes from one of its peers (Table 10's small minority).
        community_tagging_probability: probability that an AS tags routes
            with relationship communities (Appendix).
    """

    seed: int = 20021111
    atypical_scheme_probability: float = 0.02
    atypical_neighbor_probability: float = 0.01
    prefix_based_fraction: float = 0.03
    selective_announcement_probability: float = 0.45
    selective_prefix_fraction: float = 0.7
    scoped_announcement_probability: float = 0.15
    transit_selective_probability: float = 0.12
    peer_withhold_probability: float = 0.08
    community_tagging_probability: float = 0.6

    def validate(self) -> None:
        """Raise :class:`PolicyError` for out-of-range probabilities."""
        for name in (
            "atypical_scheme_probability",
            "atypical_neighbor_probability",
            "prefix_based_fraction",
            "selective_announcement_probability",
            "selective_prefix_fraction",
            "scoped_announcement_probability",
            "transit_selective_probability",
            "peer_withhold_probability",
            "community_tagging_probability",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise PolicyError(f"{name} must be a probability, got {value}")


#: An atypical scheme: provider routes preferred over peer routes.  Customer
#: routes stay strictly preferred so that the Gao–Rexford convergence
#: condition still holds — the simulation only generates atypical policies of
#: this convergence-safe form, which still count as "atypical" under the
#: paper's definition ("the local preference of provider routes is not lower
#: than that of peer routes").
ATYPICAL_SCHEME = LocalPrefScheme(customer=110, peer=90, provider=100)


@dataclass
class PolicyAssignment:
    """The generated policies plus the ground truth needed for validation.

    Attributes:
        policies: AS → its :class:`ASPolicy`.
        selective_origins: origin ASes that selectively announce at least one
            prefix, with the affected prefixes.
        scoped_origins: origin ASes using scoped (community) announcements,
            with the affected prefixes.
        selective_transits: transit ASes restricting customer-route exports.
        atypical_ases: ASes whose scheme or overrides violate the typical
            LOCAL_PREF order.
        tagging_ases: ASes with a community plan.
    """

    policies: dict[ASN, ASPolicy] = field(default_factory=dict)
    selective_origins: dict[ASN, set[Prefix]] = field(default_factory=dict)
    scoped_origins: dict[ASN, set[Prefix]] = field(default_factory=dict)
    selective_transits: set[ASN] = field(default_factory=set)
    atypical_ases: set[ASN] = field(default_factory=set)
    tagging_ases: set[ASN] = field(default_factory=set)

    def policy_for(self, asn: ASN) -> ASPolicy:
        """Return the policy of an AS (a default-typical policy if unassigned)."""
        policy = self.policies.get(asn)
        if policy is None:
            policy = ASPolicy(asn=asn)
            self.policies[asn] = policy
        return policy


class PolicyGenerator:
    """Draws a :class:`PolicyAssignment` for a synthetic Internet."""

    def __init__(self, parameters: PolicyParameters | None = None) -> None:
        self.parameters = parameters or PolicyParameters()
        self.parameters.validate()

    def generate(
        self,
        internet: SyntheticInternet,
        looking_glass_ases: list[ASN] | None = None,
    ) -> PolicyAssignment:
        """Generate policies for every AS of ``internet``.

        ``looking_glass_ases`` are the ASes whose tables will be inspected at
        fine granularity; only they receive per-prefix LOCAL_PREF overrides
        (mirroring the paper, which can only observe prefix-based assignment
        where LOCAL_PREF is visible).
        """
        params = self.parameters
        rng = random.Random(params.seed)
        graph = internet.graph
        assignment = PolicyAssignment()
        looking_glass = set(looking_glass_ases or [])

        for asn in sorted(graph.ases()):
            policy = ASPolicy(asn=asn)
            # Import side: relationship scheme, rare atypical deviations.
            if rng.random() < params.atypical_scheme_probability:
                policy.local_pref = ATYPICAL_SCHEME
                assignment.atypical_ases.add(asn)
            self._assign_neighbor_overrides(policy, graph, rng, assignment)
            if asn in looking_glass:
                self._assign_prefix_overrides(policy, internet, rng)
            # Community tagging.
            if rng.random() < params.community_tagging_probability and graph.degree(asn) >= 3:
                policy.community_plan = CommunityPlan(asn=asn)
                assignment.tagging_ases.add(asn)
            # Export side.
            self._assign_origin_export_policy(policy, internet, rng, assignment)
            self._assign_transit_export_policy(policy, graph, rng, assignment)
            self._assign_peer_export_policy(policy, internet, rng)
            assignment.policies[asn] = policy
        return assignment

    # -- pieces --------------------------------------------------------------------

    def _assign_neighbor_overrides(
        self,
        policy: ASPolicy,
        graph,
        rng: random.Random,
        assignment: PolicyAssignment,
    ) -> None:
        params = self.parameters
        for neighbor in graph.neighbors(policy.asn):
            if rng.random() >= params.atypical_neighbor_probability:
                continue
            relationship = graph.relationship(policy.asn, neighbor)
            # Atypical assignments are generated in the convergence-safe form
            # only: customer routes stay strictly preferred, but a provider
            # neighbor can be raised to (or above) the peer level, and a peer
            # neighbor can be lowered to the provider level.  Both violate
            # the paper's "typical" ordering without creating dispute wheels.
            if relationship is Relationship.PROVIDER:
                policy.neighbor_local_pref[neighbor] = policy.local_pref.peer + 2
            elif relationship is Relationship.PEER:
                policy.neighbor_local_pref[neighbor] = policy.local_pref.provider - 2
            else:
                continue
            assignment.atypical_ases.add(policy.asn)

    def _assign_prefix_overrides(
        self, policy: ASPolicy, internet: SyntheticInternet, rng: random.Random
    ) -> None:
        fraction = self.parameters.prefix_based_fraction
        if fraction <= 0:
            return
        all_prefixes = internet.all_prefixes()
        if not all_prefixes:
            return
        sample_size = max(1, int(len(all_prefixes) * fraction))
        sample_size = min(sample_size, len(all_prefixes))
        for prefix in rng.sample(all_prefixes, k=sample_size):
            policy.prefix_local_pref[prefix] = rng.choice([80, 85, 95, 115, 120])

    def _assign_origin_export_policy(
        self,
        policy: ASPolicy,
        internet: SyntheticInternet,
        rng: random.Random,
        assignment: PolicyAssignment,
    ) -> None:
        params = self.parameters
        asn = policy.asn
        providers = internet.graph.providers_of(asn)
        prefixes = internet.prefixes_of(asn)
        if len(providers) < 2 or not prefixes:
            return
        if rng.random() >= params.selective_announcement_probability:
            return
        affected_count = max(1, int(round(len(prefixes) * params.selective_prefix_fraction)))
        affected = rng.sample(prefixes, k=min(affected_count, len(prefixes)))
        for prefix in affected:
            subset_size = rng.randint(1, len(providers) - 1)
            subset = frozenset(rng.sample(providers, k=subset_size))
            if rng.random() < params.scoped_announcement_probability:
                # Announce to the subset with a "do not propagate" community
                # and to nobody else plainly.
                policy.scoped_to_providers[prefix] = subset
                policy.announce_to_providers[prefix] = frozenset()
                assignment.scoped_origins.setdefault(asn, set()).add(prefix)
            else:
                policy.announce_to_providers[prefix] = subset
            assignment.selective_origins.setdefault(asn, set()).add(prefix)

    def _assign_transit_export_policy(
        self,
        policy: ASPolicy,
        graph,
        rng: random.Random,
        assignment: PolicyAssignment,
    ) -> None:
        params = self.parameters
        asn = policy.asn
        providers = graph.providers_of(asn)
        customers = graph.customers_of(asn)
        if len(providers) < 2 or not customers:
            return
        if rng.random() >= params.transit_selective_probability:
            return
        subset_size = rng.randint(1, len(providers) - 1)
        policy.export_customer_prefixes_to = frozenset(rng.sample(providers, k=subset_size))
        assignment.selective_transits.add(asn)

    def _assign_peer_export_policy(
        self, policy: ASPolicy, internet: SyntheticInternet, rng: random.Random
    ) -> None:
        params = self.parameters
        asn = policy.asn
        peers = internet.graph.peers_of(asn)
        prefixes = internet.prefixes_of(asn)
        if not peers or not prefixes:
            return
        if rng.random() >= params.peer_withhold_probability:
            return
        withheld_peers = frozenset(rng.sample(peers, k=max(1, len(peers) // 3)))
        withheld_prefixes = rng.sample(prefixes, k=max(1, len(prefixes) // 2))
        for prefix in withheld_prefixes:
            policy.withhold_from_peers[prefix] = withheld_peers
