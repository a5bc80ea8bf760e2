"""Hand-built scenarios reproducing the paper's illustrative figures.

These small, fully deterministic set-ups are used by the unit tests, the
documentation and ``examples/quickstart.py`` to demonstrate each mechanism in
isolation:

* :func:`figure1_scenario` — the annotated AS graph of Fig. 1.
* :func:`figure3_scenario` — Fig. 3: customer A announces prefix ``p`` to
  provider C but not to provider B, so B's provider D sees ``p`` via its peer
  E (an SA prefix at D).
* :func:`figure5_scenario` — Fig. 5: AS6280's prefix reaches AS1 via its
  peer AS3549 instead of via its customer AS852.
* :func:`figure8_multihomed_scenario` / :func:`figure8_singlehomed_scenario`
  — Fig. 8: the two connectivity patterns behind SA prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.simulation.policies import ASPolicy, PolicyAssignment
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.propagation import SimulationResult
from repro.topology.generator import GeneratorParameters, SyntheticInternet
from repro.topology.graph import AnnotatedASGraph
from repro.topology.hierarchy import classify_tiers
from repro.net.allocator import AddressAllocator


@dataclass
class Scenario:
    """A small, deterministic simulation set-up.

    Attributes:
        name: short identifier ("figure3", ...).
        internet: the synthetic Internet (usually a handful of ASes).
        assignment: the policy assignment (selective announcements included).
        observed_ases: the ASes whose tables the scenario is about.
        focus_prefix: the prefix whose treatment the figure illustrates, if any.
        focus_provider: the provider at which the effect is observed, if any.
    """

    name: str
    internet: SyntheticInternet
    assignment: PolicyAssignment
    observed_ases: list[ASN]
    focus_prefix: Prefix | None = None
    focus_provider: ASN | None = None

    def run(self) -> SimulationResult:
        """Propagate the scenario and return the observed tables."""
        return FastPropagationEngine(
            self.internet, self.assignment, observed_ases=self.observed_ases
        ).run()


def _internet_from_graph(
    graph: AnnotatedASGraph, originated: dict[ASN, list[Prefix]]
) -> SyntheticInternet:
    """Wrap a hand-built graph and prefix ownership into a SyntheticInternet."""
    parameters = GeneratorParameters()
    return SyntheticInternet(
        parameters=parameters,
        graph=graph,
        tiers=classify_tiers(graph),
        allocator=AddressAllocator(),
        originated=originated,
    )


def figure1_scenario() -> Scenario:
    """The annotated AS graph of Fig. 1 with every AS originating one prefix."""
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[(1, 2), (1, 3), (2, 4), (2, 5), (4, 6)],
        peer_peer=[(3, 4)],
    )
    originated = {
        asn: [Prefix.parse(f"10.{asn}.0.0/16")] for asn in graph.ases()
    }
    internet = _internet_from_graph(graph, originated)
    assignment = PolicyAssignment()
    for asn in graph.ases():
        assignment.policies[asn] = ASPolicy(asn=asn)
    return Scenario(
        name="figure1",
        internet=internet,
        assignment=assignment,
        observed_ases=sorted(graph.ases()),
    )


def figure3_scenario() -> Scenario:
    """Fig. 3: selective announcement observed at provider D.

    Topology (AS numbers in parentheses):  customer A (100) is multihomed to
    providers B (20) and C (30).  D (10) is B's provider and peers with
    E (11), which is C's provider.  A announces prefix ``p`` to C only, so D
    receives ``p`` from its peer E even though A is in D's customer cone.
    """
    provider_d, peer_e = 10, 11
    provider_b, provider_c = 20, 30
    customer_a = 100
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[
            (provider_d, provider_b),
            (peer_e, provider_c),
            (provider_b, customer_a),
            (provider_c, customer_a),
        ],
        peer_peer=[(provider_d, peer_e)],
    )
    prefix = Prefix.parse("10.100.0.0/16")
    originated = {customer_a: [prefix]}
    internet = _internet_from_graph(graph, originated)
    assignment = PolicyAssignment()
    for asn in graph.ases():
        assignment.policies[asn] = ASPolicy(asn=asn)
    policy_a = assignment.policy_for(customer_a)
    policy_a.announce_to_providers[prefix] = frozenset({provider_c})
    assignment.selective_origins[customer_a] = {prefix}
    return Scenario(
        name="figure3",
        internet=internet,
        assignment=assignment,
        observed_ases=[provider_d, peer_e, provider_b, provider_c],
        focus_prefix=prefix,
        focus_provider=provider_d,
    )


def figure5_scenario() -> Scenario:
    """Fig. 5: AS1 receives AS6280's prefix from its peer AS3549.

    AS852 is AS1's customer and AS6280's provider; AS13768 is AS3549's
    customer and AS6280's other provider.  AS6280 announces ``p`` only via
    AS13768, so AS1 sees ``p`` over the AS1–AS3549 peer link.
    """
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[
            (1, 852),
            (3549, 13768),
            (852, 6280),
            (13768, 6280),
        ],
        peer_peer=[(1, 3549)],
    )
    prefix = Prefix.parse("10.62.80.0/24")
    originated = {6280: [prefix]}
    internet = _internet_from_graph(graph, originated)
    assignment = PolicyAssignment()
    for asn in graph.ases():
        assignment.policies[asn] = ASPolicy(asn=asn)
    policy = assignment.policy_for(6280)
    policy.announce_to_providers[prefix] = frozenset({13768})
    assignment.selective_origins[6280] = {prefix}
    return Scenario(
        name="figure5",
        internet=internet,
        assignment=assignment,
        observed_ases=[1, 3549, 852, 13768],
        focus_prefix=prefix,
        focus_provider=1,
    )


def figure8_multihomed_scenario() -> Scenario:
    """Fig. 8(a): multihomed customer, disjoint best path and customer path.

    Customer v (5) is multihomed to u3 (3) and u1 (1).  Provider u0 (0) has
    customer u3 and peers with u2 (2), which is u1's provider.  v announces
    its prefix only to u1, so u0's best path (u0 u2 u1 v) and the customer
    path (u0 u3 v) are disjoint.
    """
    u0, u1, u2, u3, v = 10, 1, 2, 3, 5
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[(u0, u3), (u2, u1), (u3, v), (u1, v)],
        peer_peer=[(u0, u2)],
    )
    prefix = Prefix.parse("10.5.0.0/16")
    originated = {v: [prefix]}
    internet = _internet_from_graph(graph, originated)
    assignment = PolicyAssignment()
    for asn in graph.ases():
        assignment.policies[asn] = ASPolicy(asn=asn)
    policy = assignment.policy_for(v)
    policy.announce_to_providers[prefix] = frozenset({u1})
    assignment.selective_origins[v] = {prefix}
    return Scenario(
        name="figure8a",
        internet=internet,
        assignment=assignment,
        observed_ases=[u0, u1, u2, u3],
        focus_prefix=prefix,
        focus_provider=u0,
    )


def figure8_singlehomed_scenario() -> Scenario:
    """Fig. 8(b): single-homed customer, curving path caused upstream.

    Customer v (5) is single-homed to u1 (1).  u1 is itself multihomed to
    providers u3 (3) and u2 (2).  u0 (10) is u3's provider and peers with u2.
    u1 exports v's prefix (and its own) to u2 but not to u3, so u0 reaches v
    via the peer path u0–u2–u1–v even though the customer path u0–u3–u1–v
    exists.
    """
    u0, u1, u2, u3, v = 10, 1, 2, 3, 5
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[(u0, u3), (u3, u1), (u2, u1), (u1, v)],
        peer_peer=[(u0, u2)],
    )
    prefix = Prefix.parse("10.5.0.0/16")
    originated = {v: [prefix]}
    internet = _internet_from_graph(graph, originated)
    assignment = PolicyAssignment()
    for asn in graph.ases():
        assignment.policies[asn] = ASPolicy(asn=asn)
    # The intermediate AS u1 (the "last common AS") restricts its exports of
    # customer routes to provider u2 only.
    policy_u1 = assignment.policy_for(u1)
    policy_u1.export_customer_prefixes_to = frozenset({u2})
    # u1 also originates its own prefix and announces it only to u2.
    own_prefix = Prefix.parse("10.1.0.0/16")
    internet.originated[u1] = [own_prefix]
    policy_u1.announce_to_providers[own_prefix] = frozenset({u2})
    assignment.selective_origins[u1] = {own_prefix}
    assignment.selective_transits.add(u1)
    return Scenario(
        name="figure8b",
        internet=internet,
        assignment=assignment,
        observed_ases=[u0, u1, u2, u3],
        focus_prefix=prefix,
        focus_provider=u0,
    )
