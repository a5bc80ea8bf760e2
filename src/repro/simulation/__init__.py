"""Policy-aware BGP route propagation over the synthetic Internet.

This subpackage is the substitute for the paper's measurement substrate
(Oregon RouteViews, Looking Glass servers, AT&T's backbone tables): routes
are originated by the ASes of a :class:`~repro.topology.generator.SyntheticInternet`,
propagated AS by AS under configurable import and export policies, and
observed at collector and Looking Glass vantage points.

* :mod:`repro.simulation.policies` — per-AS policy configuration and the
  seeded policy generator (local-preference schemes, selective announcement,
  community tagging, peer-export behaviour).
* :mod:`repro.simulation.propagation` — the result types plus the reference
  message-passing engine (decision process, Gao–Rexford export rules and the
  configured policies), kept as the test oracle of the fast path.
* :mod:`repro.simulation.fastpath` — the compiled fast propagation core
  (interned flat-graph engine, incremental best-route selection); the one
  production engine, behind the session layer, the timeline and the figure
  scenarios.
* :mod:`repro.simulation.collector` — RouteViews-style collectors and
  Looking Glass views (including multi-router views of one AS).
* :mod:`repro.simulation.timeline` — repeated simulation under policy churn,
  producing the daily/hourly snapshots of the persistence study.
* :mod:`repro.simulation.scenario` — small hand-built scenarios reproducing
  the paper's illustrative figures (Fig. 5; the tests build Figs. 1, 3
  and 8 the same way).
"""

from repro.simulation.policies import (
    ASPolicy,
    CommunityPlan,
    LocalPrefScheme,
    PolicyGenerator,
    PolicyParameters,
)
from repro.simulation.propagation import PrefixRun, PropagationEngine, SimulationResult
from repro.simulation.fastpath import (
    CompiledTopology,
    FastPropagationEngine,
    compile_topology,
)
from repro.simulation.collector import CollectorTable, LookingGlass, RouteViewsCollector
from repro.simulation.timeline import Snapshot, Timeline, TimelineParameters
from repro.simulation.scenario import figure5_scenario

__all__ = [
    "ASPolicy",
    "CollectorTable",
    "CommunityPlan",
    "CompiledTopology",
    "FastPropagationEngine",
    "LocalPrefScheme",
    "LookingGlass",
    "PolicyGenerator",
    "PolicyParameters",
    "PrefixRun",
    "PropagationEngine",
    "RouteViewsCollector",
    "SimulationResult",
    "compile_topology",
    "Snapshot",
    "Timeline",
    "TimelineParameters",
    "figure5_scenario",
]
