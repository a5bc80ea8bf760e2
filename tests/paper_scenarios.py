"""The paper's illustrative figure scenarios the tests propagate.

Hand-built, fully deterministic set-ups that pin one mechanism each; the
propagation, export-policy and golden-equivalence tests run them.  Fig. 5
stays in :mod:`repro.simulation.scenario` because ``examples/quickstart.py``
uses it.

* :func:`figure1_scenario` — the annotated AS graph of Fig. 1.
* :func:`figure3_scenario` — Fig. 3: customer A announces prefix ``p`` to
  provider C but not to provider B, so B's provider D sees ``p`` via its peer
  E (an SA prefix at D).
* :func:`figure8_multihomed_scenario` / :func:`figure8_singlehomed_scenario`
  — Fig. 8: the two connectivity patterns behind SA prefixes.

Import as ``from paper_scenarios import ...`` — ``tests/conftest.py`` puts
this directory on ``sys.path`` for every test module.
"""

from repro.net.prefix import Prefix
from repro.simulation.policies import ASPolicy, PolicyAssignment
from repro.simulation.scenario import Scenario, _internet_from_graph
from repro.topology.graph import AnnotatedASGraph


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
    return Scenario(
        name="figure3",
        internet=internet,
        assignment=assignment,
        observed_ases=[provider_d, peer_e, provider_b, provider_c],
        focus_prefix=prefix,
        focus_provider=provider_d,
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
    return Scenario(
        name="figure8b",
        internet=internet,
        assignment=assignment,
        observed_ases=[u0, u1, u2, u3],
        focus_prefix=prefix,
        focus_provider=u0,
    )
