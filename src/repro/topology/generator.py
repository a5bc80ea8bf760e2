"""Synthetic hierarchical Internet generator.

The paper's measurements run over the real 2002 Internet (Oregon RouteViews
plus Looking Glass servers).  Offline we substitute a synthetic AS-level
Internet that reproduces the structural features the inference pipeline keys
on:

* a fully meshed **Tier-1 clique** of provider-free ASes (the paper's AS1,
  AS1239, AS3549, AS7018, ...),
* **transit tiers** below the clique, each AS buying transit from one or
  more ASes of the tier above and peering laterally with some ASes of its
  own tier,
* a large population of **stub ASes**, a configurable fraction of which are
  multihomed (the paper finds ~75% of SA-prefix origins are multihomed), and
* **address space** allocated per AS, with some stubs using
  provider-assigned blocks (enabling the aggregation cause of Table 9) and
  some splitting their blocks into more-specifics (the splitting cause).

Everything is driven by a seeded :class:`random.Random` so experiments are
reproducible run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.exceptions import PrefixError, TopologyError
from repro.net.allocator import AddressAllocator
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.topology.graph import AnnotatedASGraph
from repro.topology.hierarchy import TierClassification, classify_tiers


@dataclass(frozen=True)
class GeneratorParameters:
    """Knobs of the synthetic Internet.

    The defaults produce a ~1100-AS Internet that runs the full experiment
    suite in a few seconds; the benchmark harness scales some of them up.

    Instances are frozen (immutable and hashable) so they can serve as
    content-addressed stage-cache keys in :mod:`repro.session`; derive
    variants with :func:`dataclasses.replace`.

    Attributes:
        seed: seed of the pseudo-random generator.
        tier1_count: number of ASes in the fully meshed Tier-1 clique.
        tier2_count: number of large regional/national transit ASes.
        tier3_count: number of small transit ASes.
        stub_count: number of stub (customer-only) ASes.
        stub_multihoming_probability: probability that a stub has more than
            one provider.
        max_stub_providers: maximum number of providers of a multihomed stub.
        stub_tier1_probability: probability that any given provider slot of a
            stub attaches directly to a Tier-1 AS instead of a lower-tier
            transit AS.  Real Tier-1s terminate thousands of enterprise
            customers directly (AT&T's degree is 1330 in Table 1), and the
            degree-based relationship inference relies on Tier-1 degrees
            dominating, so the synthetic Internet reproduces that skew.
        tier2_peering_probability: probability that two Tier-2 ASes peer.
        tier3_peering_probability: probability that two Tier-3 ASes peer.
        stub_peering_probability: probability that two stubs sharing a
            provider establish a (rare) peer link.
        prefixes_per_stub: maximum number of prefixes originated by a stub.

    The address plan's other rates are the module constants
    :data:`FIRST_ASN`, :data:`PREFIXES_PER_TRANSIT`,
    :data:`PROVIDER_ASSIGNED_PROBABILITY` and :data:`SPLIT_PROBABILITY`.
    """

    seed: int = 2002
    tier1_count: int = 8
    tier2_count: int = 40
    tier3_count: int = 120
    stub_count: int = 900
    stub_multihoming_probability: float = 0.45
    max_stub_providers: int = 3
    stub_tier1_probability: float = 0.3
    tier2_peering_probability: float = 0.35
    tier3_peering_probability: float = 0.08
    stub_peering_probability: float = 0.01
    prefixes_per_stub: int = 4

    def validate(self) -> None:
        """Raise :class:`TopologyError` on nonsensical parameter combinations."""
        if self.tier1_count < 2:
            raise TopologyError("the Tier-1 clique needs at least two ASes")
        if min(self.tier2_count, self.tier3_count, self.stub_count) < 0:
            raise TopologyError("AS counts cannot be negative")
        for name in (
            "stub_multihoming_probability",
            "stub_tier1_probability",
            "tier2_peering_probability",
            "tier3_peering_probability",
            "stub_peering_probability",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise TopologyError(f"{name} must be a probability, got {value}")
        if self.max_stub_providers < 1:
            raise TopologyError("max_stub_providers must be at least 1")


#: AS number assigned to the first generated AS.
FIRST_ASN = 1

#: Maximum number of prefixes originated by a Tier-2 transit AS.
PREFIXES_PER_TRANSIT = 3

#: Probability that a stub's prefix is carved out of one of its providers'
#: blocks instead of being provider-independent (the Table 9 aggregation
#: case).
PROVIDER_ASSIGNED_PROBABILITY = 0.15

#: Probability that a stub splits its first prefix into two more-specifics
#: announced next to it (the Table 9 splitting case).
SPLIT_PROBABILITY = 0.12

#: How many of the largest Tier-1 providers the SA-prefix studies cover (the
#: paper studies AS1, AS3549 and AS7018).
STUDY_PROVIDER_COUNT = 3


@dataclass
class SyntheticInternet:
    """A generated Internet: graph, tiers and prefix ownership.

    Attributes:
        graph: the ground-truth annotated AS graph.
        tiers: the tier classification derived from the graph.
        originated: mapping AS → the prefixes it originates (after any
            splitting), i.e. exactly what the AS will inject into BGP.  A
            split prefix's more-specifics follow their covering prefix, and a
            provider-assigned prefix lies inside its provider's first prefix.
    """

    graph: AnnotatedASGraph
    tiers: TierClassification
    originated: dict[ASN, list[Prefix]] = field(default_factory=dict)

    @property
    def tier1(self) -> list[ASN]:
        """The Tier-1 ASes, sorted by AS number."""
        return sorted(self.tiers.tier1)

    def providers_under_study(self, count: int = STUDY_PROVIDER_COUNT) -> list[ASN]:
        """The largest Tier-1 ASes (by degree), mirroring AS1/AS3549/AS7018."""
        return sorted(self.tier1, key=self.graph.degree, reverse=True)[:count]

    def prefixes_of(self, asn: ASN) -> list[Prefix]:
        """The prefixes originated by an AS (empty list for transit-only ASes)."""
        return list(self.originated.get(asn, []))

    def all_prefixes(self) -> list[Prefix]:
        """Every originated prefix across all ASes."""
        return [prefix for prefixes in self.originated.values() for prefix in prefixes]

    def __repr__(self) -> str:
        return (
            f"SyntheticInternet(ases={len(self.graph)}, edges={self.graph.edge_count()}, "
            f"prefixes={len(self.all_prefixes())})"
        )


class InternetGenerator:
    """Builds :class:`SyntheticInternet` instances from :class:`GeneratorParameters`."""

    def __init__(self, parameters: GeneratorParameters | None = None) -> None:
        self.parameters = parameters or GeneratorParameters()
        self.parameters.validate()
        self._rng = random.Random(self.parameters.seed)

    # -- public API ----------------------------------------------------------

    def generate(self) -> SyntheticInternet:
        """Generate the topology, the tiers and the address plan."""
        params = self.parameters
        graph = AnnotatedASGraph()
        next_asn = FIRST_ASN

        tier1 = list(range(next_asn, next_asn + params.tier1_count))
        next_asn += params.tier1_count
        tier2 = list(range(next_asn, next_asn + params.tier2_count))
        next_asn += params.tier2_count
        tier3 = list(range(next_asn, next_asn + params.tier3_count))
        next_asn += params.tier3_count
        stubs = list(range(next_asn, next_asn + params.stub_count))

        for asn in tier1 + tier2 + tier3 + stubs:
            graph.add_as(asn)

        self._build_tier1_clique(graph, tier1)
        self._attach_tier(graph, tier2, tier1, min_providers=1, max_providers=3)
        self._add_lateral_peering(graph, tier2, params.tier2_peering_probability)
        self._attach_tier(graph, tier3, tier2, min_providers=1, max_providers=2)
        self._add_lateral_peering(graph, tier3, params.tier3_peering_probability)
        self._attach_stubs(graph, stubs, tier2 + tier3, tier1)
        self._add_stub_peering(graph, stubs)

        internet = SyntheticInternet(graph=graph, tiers=classify_tiers(graph))
        self._allocate_addresses(internet, tier1, tier2, tier3, stubs)
        return internet

    # -- topology construction ------------------------------------------------

    def _build_tier1_clique(self, graph: AnnotatedASGraph, tier1: list[ASN]) -> None:
        for index, left in enumerate(tier1):
            for right in tier1[index + 1:]:
                graph.add_peer_peer(left, right)

    def _attach_tier(
        self,
        graph: AnnotatedASGraph,
        members: list[ASN],
        upstream_pool: list[ASN],
        min_providers: int,
        max_providers: int,
    ) -> None:
        for asn in members:
            provider_count = self._rng.randint(min_providers, max_providers)
            providers = self._rng.sample(
                upstream_pool, k=min(provider_count, len(upstream_pool))
            )
            for provider in providers:
                graph.add_provider_customer(provider, asn)

    def _add_lateral_peering(
        self, graph: AnnotatedASGraph, members: list[ASN], probability: float
    ) -> None:
        for index, left in enumerate(members):
            for right in members[index + 1:]:
                if self._rng.random() < probability:
                    graph.add_peer_peer(left, right)

    def _attach_stubs(
        self,
        graph: AnnotatedASGraph,
        stubs: list[ASN],
        transit_pool: list[ASN],
        tier1: list[ASN],
    ) -> None:
        params = self.parameters
        for asn in stubs:
            if self._rng.random() < params.stub_multihoming_probability:
                provider_count = self._rng.randint(2, params.max_stub_providers)
            else:
                provider_count = 1
            providers: set[ASN] = set()
            while len(providers) < min(provider_count, len(transit_pool) + len(tier1)):
                if tier1 and self._rng.random() < params.stub_tier1_probability:
                    providers.add(self._rng.choice(tier1))
                elif transit_pool:
                    providers.add(self._rng.choice(transit_pool))
                else:
                    providers.add(self._rng.choice(tier1))
            for provider in sorted(providers):
                graph.add_provider_customer(provider, asn)

    def _add_stub_peering(self, graph: AnnotatedASGraph, stubs: list[ASN]) -> None:
        probability = self.parameters.stub_peering_probability
        if probability <= 0:
            return
        # Only stubs sharing a provider may peer (an IX-style shortcut).
        by_provider: dict[ASN, list[ASN]] = {}
        for stub in stubs:
            for provider in graph.providers_of(stub):
                by_provider.setdefault(provider, []).append(stub)
        for cohort in by_provider.values():
            for index, left in enumerate(cohort):
                for right in cohort[index + 1:]:
                    if self._rng.random() < probability:
                        graph.add_peer_peer(left, right)

    # -- address plan ----------------------------------------------------------------

    def _allocate_addresses(
        self,
        internet: SyntheticInternet,
        tier1: list[ASN],
        tier2: list[ASN],
        tier3: list[ASN],
        stubs: list[ASN],
    ) -> None:
        params = self.parameters
        graph = internet.graph
        allocator = AddressAllocator()
        provider_blocks: dict[ASN, Prefix] = {}

        # Transit ASes get big blocks; their first block can be carved up for
        # provider-assigned customer space later.
        for asn in tier1:
            provider_blocks[asn] = allocator.allocate(length=12)
            internet.originated[asn] = [provider_blocks[asn]]
        for asn in tier2:
            provider_blocks[asn] = allocator.allocate(length=14)
            count = self._rng.randint(1, PREFIXES_PER_TRANSIT)
            extra = [allocator.allocate(length=19) for _ in range(count - 1)]
            internet.originated[asn] = [provider_blocks[asn]] + extra
        for asn in tier3:
            provider_blocks[asn] = allocator.allocate(length=16)
            internet.originated[asn] = [provider_blocks[asn]]

        for asn in stubs:
            prefixes: list[Prefix] = []
            prefix_count = self._rng.randint(1, params.prefixes_per_stub)
            providers = graph.providers_of(asn)
            for _ in range(prefix_count):
                prefix = None
                if providers and self._rng.random() < PROVIDER_ASSIGNED_PROBABILITY:
                    parent = provider_blocks.get(self._rng.choice(providers))
                    if parent is not None:
                        try:
                            prefix = allocator.suballocate(parent, length=22)
                        except PrefixError:
                            pass  # parent exhausted: fall back to independent space
                if prefix is None:
                    prefix = allocator.allocate(length=22)
                prefixes.append(prefix)
            # Optionally split the first prefix into two more-specifics that
            # are announced *in addition to* the covering prefix.
            if prefixes and self._rng.random() < SPLIT_PROBABILITY:
                prefixes.extend(prefixes[0].split(2))
            internet.originated[asn] = prefixes
