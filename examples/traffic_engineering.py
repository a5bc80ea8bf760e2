#!/usr/bin/env python3
"""Traffic engineering with selective announcement — and its side effects.

The paper's motivation for studying export policies is inbound traffic
engineering: a multihomed customer can shift incoming traffic between its
providers by announcing prefixes to only a subset of them.  This example
shows both sides of that coin on a small Internet:

* before: the customer announces both prefixes to both providers — every
  Tier-1 reaches it over customer paths, traffic is spread;
* after: the customer moves one prefix to a single provider — inbound
  traffic for that prefix now enters over the chosen link only, *but* the
  other Tier-1 now reaches the prefix through a peer ("curving" route), i.e.
  the prefix became an SA prefix, exactly the effect the paper cautions
  operators about.

Run with::

    python examples/traffic_engineering.py
"""

from repro.core.export_policy import ExportPolicyAnalyzer
from repro.net.prefix import Prefix
from repro.reporting.tables import ascii_table
from repro.simulation.policies import ASPolicy, PolicyAssignment
from repro.simulation.propagation import PropagationEngine
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import AnnotatedASGraph
from repro.topology.hierarchy import classify_tiers

TIER1_A, TIER1_B = 10, 20
PROVIDER_A, PROVIDER_B = 100, 200
CUSTOMER = 65001
PREFIX_WEB = Prefix.parse("10.50.0.0/20")
PREFIX_MAIL = Prefix.parse("10.50.16.0/20")


def build_internet() -> SyntheticInternet:
    """Two Tier-1 peers, two regional providers, one multihomed customer."""
    graph = AnnotatedASGraph.from_edges(
        provider_customer=[
            (TIER1_A, PROVIDER_A),
            (TIER1_B, PROVIDER_B),
            (PROVIDER_A, CUSTOMER),
            (PROVIDER_B, CUSTOMER),
        ],
        peer_peer=[(TIER1_A, TIER1_B), (PROVIDER_A, PROVIDER_B)],
    )
    return SyntheticInternet(
        graph=graph,
        tiers=classify_tiers(graph),
        originated={CUSTOMER: [PREFIX_WEB, PREFIX_MAIL]},
    )


def run(internet: SyntheticInternet, assignment: PolicyAssignment, label: str) -> None:
    engine = PropagationEngine(
        internet, assignment, observed_ases=[TIER1_A, TIER1_B, PROVIDER_A, PROVIDER_B]
    )
    result = engine.run()
    print(f"--- {label} ---")
    rows = []
    for observer in (TIER1_A, TIER1_B):
        table = result.table_of(observer)
        for prefix in (PREFIX_WEB, PREFIX_MAIL):
            best = table.best_route(prefix)
            rows.append(
                [
                    f"AS{observer}",
                    str(prefix),
                    str(best.as_path) if best else "(unreachable)",
                    str(best.neighbor_kind) if best else "-",
                ]
            )
    print(ascii_table(["observer", "prefix", "best AS path", "route type"], rows))

    analyzer = ExportPolicyAnalyzer(internet.graph)
    for observer in (TIER1_A, TIER1_B):
        report = analyzer.find_sa_prefixes(observer, result.table_of(observer))
        sa = ", ".join(str(p) for p in sorted(report.sa_prefix_set())) or "none"
        print(f"SA prefixes at AS{observer}: {sa}")
    print()


def main() -> None:
    internet = build_internet()

    # Before: announce everything everywhere.
    baseline = PolicyAssignment()
    for asn in internet.graph.ases():
        baseline.policies[asn] = ASPolicy(asn=asn)
    run(internet, baseline, "before traffic engineering (announce to both providers)")

    # After: move the web prefix onto provider B only to relieve the A link.
    engineered = PolicyAssignment()
    for asn in internet.graph.ases():
        engineered.policies[asn] = ASPolicy(asn=asn)
    customer_policy = engineered.policy_for(CUSTOMER)
    customer_policy.announce_to_providers[PREFIX_WEB] = frozenset({PROVIDER_B})
    run(
        internet,
        engineered,
        "after traffic engineering (web prefix announced to provider B only)",
    )

    print(
        "The web prefix's inbound traffic now enters via provider B only, but the\n"
        "Tier-1 above provider A has lost its customer route and reaches the prefix\n"
        "through its peer instead - the prefix has become an SA prefix (paper 5.1)."
    )


if __name__ == "__main__":
    main()
