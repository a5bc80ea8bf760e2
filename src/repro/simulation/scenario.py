"""Hand-built scenarios reproducing the paper's illustrative figures.

A :class:`Scenario` is a small, fully deterministic set-up that shows one
mechanism in isolation.  :func:`figure5_scenario` (Fig. 5: AS6280's prefix
reaches AS1 via its peer AS3549 instead of via its customer AS852) drives
``examples/quickstart.py``; the tests build the other figures the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.simulation.policies import ASPolicy, PolicyAssignment
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.propagation import SimulationResult
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import AnnotatedASGraph
from repro.topology.hierarchy import classify_tiers


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
    return SyntheticInternet(
        graph=graph, tiers=classify_tiers(graph), originated=originated
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
    return Scenario(
        name="figure5",
        internet=internet,
        assignment=assignment,
        observed_ases=[1, 3549, 852, 13768],
        focus_prefix=prefix,
        focus_provider=1,
    )
