"""Multi-snapshot simulation for the persistence study (paper Section 5.1.4).

The paper examines how stable SA prefixes are over a month of daily
RouteViews snapshots and over one day of 2-hour snapshots (Figs. 6 and 7).
Between snapshots, operators occasionally change their export policies —
switching announcements between providers, adding or removing selective
announcement — which turns SA prefixes into non-SA prefixes and vice versa.

:class:`Timeline` runs the fast propagation engine once per snapshot under
a slowly churning policy assignment and records, for each snapshot, the
tables at the studied providers.  The churn operates only on the origin-level export
policies; topology and import policies stay fixed, matching the paper's
premise that what changes day to day is the announcement pattern.

That premise is also what makes the timeline cheap: one engine compiles the
assignment for snapshot 0, each later snapshot re-seeds only the origins the
churn touched, and every task whose signature did not change reuses the
previous snapshot's rows (see :mod:`repro.simulation.fastpath.engine`).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.net.asn import ASN
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.policies import PolicyAssignment
from repro.simulation.propagation import SimulationResult
from repro.topology.generator import SyntheticInternet


@dataclass
class TimelineParameters:
    """Knobs of the persistence timeline.

    Attributes:
        snapshot_count: number of snapshots to simulate (31 for the monthly
            study, 12 for the 2-hour intra-day study).
        churn_probability: probability that a selectively announcing origin
            AS changes its announcement pattern between two snapshots.
        appear_probability: probability that a previously fully announcing
            multihomed origin AS *starts* selective announcement at a
            snapshot boundary.
        disappear_probability: probability that a selectively announcing
            origin AS reverts to announcing everywhere.
        seed: seed of the churn random source.
    """

    snapshot_count: int = 31
    churn_probability: float = 0.08
    appear_probability: float = 0.01
    disappear_probability: float = 0.03
    seed: int = 315

    def validate(self) -> None:
        """Raise :class:`SimulationError` for invalid settings."""
        if self.snapshot_count < 1:
            raise SimulationError("snapshot_count must be at least 1")
        for name in ("churn_probability", "appear_probability", "disappear_probability"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise SimulationError(f"{name} must be a probability, got {value}")


@dataclass
class Snapshot:
    """One point-in-time observation.

    Attributes:
        index: snapshot number, starting at 0.
        result: the simulation result (tables at the observed ASes).
        changed_origins: origins whose export policy changed relative to the
            previous snapshot.
    """

    index: int
    result: SimulationResult
    changed_origins: set[ASN] = field(default_factory=set)


class Timeline:
    """Repeated propagation under churning origin export policies."""

    def __init__(
        self,
        internet: SyntheticInternet,
        assignment: PolicyAssignment,
        observed_ases: list[ASN],
        parameters: TimelineParameters | None = None,
    ) -> None:
        self.internet = internet
        self.base_assignment = assignment
        self.observed_ases = observed_ases
        self.parameters = parameters or TimelineParameters()
        self.parameters.validate()

    def run(self) -> list[Snapshot]:
        """Simulate every snapshot and return them in chronological order."""
        rng = random.Random(self.parameters.seed)
        assignment = copy.deepcopy(self.base_assignment)
        engine = FastPropagationEngine(
            self.internet, assignment, observed_ases=self.observed_ases
        )
        snapshots: list[Snapshot] = []
        for index in range(self.parameters.snapshot_count):
            changed: set[ASN] = set()
            if index > 0:
                changed = self._churn(assignment, rng)
            result = self._propagate(engine, changed)
            snapshots.append(Snapshot(index=index, result=result, changed_origins=changed))
        return snapshots

    def _propagate(
        self, engine: FastPropagationEngine, changed: set[ASN]
    ) -> SimulationResult:
        """One snapshot's propagation run under the engine's (churned) assignment.

        The churn mutates export policies in place, so the engine re-seeds
        the origins it touched; every other task reuses the previous
        snapshot's rows.
        """
        engine.reseed(changed)
        return engine.run()

    # -- churn ---------------------------------------------------------------------

    def _churn(self, assignment: PolicyAssignment, rng: random.Random) -> set[ASN]:
        """Mutate origin export policies in place; return the affected origins.

        The selective origins are taken once, before any change: an origin
        that stops announcing selectively in this step is still skipped by
        the appear step, so it cannot start again in the same snapshot.
        """
        params = self.parameters
        graph = self.internet.graph
        changed: set[ASN] = set()
        selective = {
            asn
            for asn, policy in assignment.policies.items()
            if policy.announce_to_providers or policy.scoped_to_providers
        }

        # Existing selective announcers may reshuffle or stop.
        for origin in sorted(selective):
            policy = assignment.policy_for(origin)
            providers = graph.providers_of(origin)
            if len(providers) < 2:
                continue
            if rng.random() < params.disappear_probability:
                policy.announce_to_providers.clear()
                policy.scoped_to_providers.clear()
                changed.add(origin)
                continue
            if rng.random() < params.churn_probability:
                for prefix in list(policy.announce_to_providers):
                    subset_size = rng.randint(1, len(providers) - 1)
                    policy.announce_to_providers[prefix] = frozenset(
                        rng.sample(providers, k=subset_size)
                    )
                changed.add(origin)

        # A few fully announcing multihomed origins may start being selective.
        if params.appear_probability > 0:
            for origin in sorted(self.internet.originated):
                if origin in selective:
                    continue
                providers = graph.providers_of(origin)
                prefixes = self.internet.prefixes_of(origin)
                if len(providers) < 2 or not prefixes:
                    continue
                if rng.random() < params.appear_probability:
                    policy = assignment.policy_for(origin)
                    prefix = rng.choice(prefixes)
                    subset_size = rng.randint(1, len(providers) - 1)
                    policy.announce_to_providers[prefix] = frozenset(
                        rng.sample(providers, k=subset_size)
                    )
                    changed.add(origin)
        return changed
