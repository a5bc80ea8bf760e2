"""Policy-aware BGP route propagation over the annotated AS graph.

The engine plays the role of the real Internet's routers: every originated
prefix is announced by its origin AS and propagated AS by AS under

* the **import policies** of :class:`~repro.simulation.policies.ASPolicy`
  (LOCAL_PREF by relationship/neighbor/prefix, community tagging, loop
  rejection),
* the **decision process** of :class:`~repro.bgp.decision.DecisionProcess`,
  and
* the **export rules** of paper Section 2.2.2 (customer routes go to
  everyone; peer and provider routes go only to customers) plus the
  configured export policies (selective announcement to providers, scoped
  "do not propagate" communities, transit-level selective export, peer
  withholding).

The simulation is message passing to a fixed point, one prefix at a time.
Announcements and withdrawals are both modelled, so ASes whose best route
changes to one they may not export (possible under atypical preferences)
correctly retract their earlier announcement.  With typical (Gao–Rexford)
preferences the process converges; a message budget guards against
pathological policy combinations.

Only the ASes listed in ``observed_ases`` retain their full routing tables
(the others' state is discarded once a prefix has converged), which keeps
memory proportional to the number of vantage points — exactly like the real
measurement study, which only sees tables at RouteViews and a handful of
Looking Glass servers.  A run's result holds those tables as a columnar RIB
(:mod:`repro.simulation.rib`); this engine lowers its ``LocRib`` objects
into it once, at the end of :meth:`PropagationEngine.run`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.bgp.attributes import Community
from repro.bgp.decision import DecisionProcess
from repro.bgp.rib import LocRib
from repro.bgp.route import NeighborKind, Route, RouteSource, originate
from repro.exceptions import SimulationError
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.simulation.policies import (
    PolicyAssignment,
    SCOPED_ANNOUNCEMENT_VALUE,
    scoped_community,
)
from repro.simulation.rib import RibColumns
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import AnnotatedASGraph, Relationship

#: Map graph relationships onto the route classification of Section 2.2.1.
_RELATIONSHIP_TO_KIND = {
    Relationship.CUSTOMER: NeighborKind.CUSTOMER,
    Relationship.PEER: NeighborKind.PEER,
    Relationship.PROVIDER: NeighborKind.PROVIDER,
    Relationship.SIBLING: NeighborKind.SIBLING,
}


@dataclass
class SimulationResult:
    """Outcome of one propagation run.

    Attributes:
        rib: the observed ASes' routing tables, as columns.
        message_count: total number of announcements/withdrawals processed
            (a rough measure of convergence work, reported by benchmarks).
        truncated_prefixes: prefixes whose propagation hit the message budget
            and was cut short (pathological policy interactions; empty under
            the convergence-safe policies the generator produces).
    """

    rib: RibColumns
    message_count: int = 0
    truncated_prefixes: list[Prefix] = field(default_factory=list)

    def table_of(self, asn: ASN) -> LocRib:
        """The ``LocRib`` view of the table observed at ``asn`` (memoised).

        Raises:
            SimulationError: if the AS was not in the observed set.
        """
        return self.rib.table(asn)

    @property
    def observed_ases(self) -> list[ASN]:
        """The ASes whose tables were retained."""
        return list(self.rib.owners)


class PrefixState:
    """Per-AS state for the prefix currently being propagated."""

    __slots__ = ("candidates", "best", "announced_to")

    def __init__(self) -> None:
        self.candidates: dict[ASN, Route] = {}
        self.best: Route | None = None
        self.announced_to: set[ASN] = set()


@dataclass
class PrefixRun:
    """Outcome of propagating a single prefix.

    Attributes:
        states: complete per-AS propagation state for the prefix.
        message_count: announcements/withdrawals processed for this prefix.
        truncated: whether propagation hit the message budget and was cut
            short before reaching a fixed point.
    """

    states: dict[ASN, PrefixState]
    message_count: int = 0
    truncated: bool = False


class PropagationEngine:
    """Propagates every originated prefix and collects tables at vantage ASes.

    Args:
        internet: the synthetic Internet (graph + prefix ownership).
        assignment: per-AS policies.
        observed_ases: ASes whose final tables are retained; defaults to the
            Tier-1 clique.
        message_budget_per_prefix: safety valve against policy-induced
            oscillation; exceeded budgets raise :class:`SimulationError`.
    """

    def __init__(
        self,
        internet: SyntheticInternet,
        assignment: PolicyAssignment,
        observed_ases: list[ASN] | None = None,
        message_budget_per_prefix: int = 500_000,
    ) -> None:
        self.internet = internet
        self.assignment = assignment
        self.graph: AnnotatedASGraph = internet.graph
        self.observed_ases = sorted(
            set(observed_ases if observed_ases is not None else internet.tier1)
        )
        self.message_budget_per_prefix = message_budget_per_prefix
        self.decision = DecisionProcess()
        self._neighbor_index: dict[ASN, dict[ASN, int]] = {}
        # Neighbor classifications are immutable during a run and consulted on
        # every export, so they are cached up front.
        self._customers: dict[ASN, list[ASN]] = {}
        self._providers: dict[ASN, list[ASN]] = {}
        self._peers: dict[ASN, list[ASN]] = {}
        self._siblings: dict[ASN, list[ASN]] = {}
        buckets = {
            Relationship.CUSTOMER: self._customers,
            Relationship.PROVIDER: self._providers,
            Relationship.PEER: self._peers,
            Relationship.SIBLING: self._siblings,
        }
        for asn in self.graph.ases():
            for bucket in buckets.values():
                bucket[asn] = []
            for neighbor, relationship in sorted(self.graph.neighbor_items(asn)):
                buckets[relationship][asn].append(neighbor)

    # -- public API ------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Propagate every originated prefix and return the observed tables."""
        tables = {asn: LocRib(owner=asn, decision=self.decision) for asn in self.observed_ases}
        message_count = 0
        truncated: list[Prefix] = []
        for origin in sorted(self.internet.originated):
            for prefix in self.internet.prefixes_of(origin):
                run = self.run_prefix(prefix, origin)
                message_count += run.message_count
                if run.truncated:
                    truncated.append(prefix)
                self._record_observed(run.states, tables)
        return SimulationResult(
            rib=RibColumns.from_tables(tables),
            message_count=message_count,
            truncated_prefixes=truncated,
        )

    def run_prefix(self, prefix: Prefix, origin: ASN) -> PrefixRun:
        """Propagate a single prefix and return the full per-AS state.

        :meth:`run` calls it once per originated prefix; tests call it
        directly when the Internet-wide outcome for one prefix is of
        interest.  The returned :class:`PrefixRun` carries every AS's state,
        the message count and whether the message budget cut the run short.
        """
        states: dict[ASN, PrefixState] = {}
        queue: deque[tuple[ASN, ASN, Route | None]] = deque()

        origin_policy = self.assignment.policy_for(origin)
        local_route = originate(prefix, origin)
        origin_state = states.setdefault(origin, PrefixState())
        origin_state.candidates[origin] = local_route
        origin_state.best = local_route

        self._seed_origin_announcements(
            prefix, origin, origin_policy, local_route, origin_state, queue
        )

        budget = self.message_budget_per_prefix
        processed = 0
        truncated = False
        while queue:
            processed += 1
            if processed > budget:
                # Pathological policy interactions (dispute wheels) have no
                # stable outcome; real BGP would oscillate too.  Truncate and
                # report rather than aborting the whole study.
                truncated = True
                break
            sender, receiver, route = queue.popleft()
            if route is None:
                self._receive_withdrawal(sender, receiver, states, queue)
            else:
                self._receive_announcement(sender, receiver, route, states, queue)
        return PrefixRun(states=states, message_count=processed, truncated=truncated)

    # -- propagation core ------------------------------------------------------------

    def _seed_origin_announcements(
        self,
        prefix: Prefix,
        origin: ASN,
        origin_policy,
        local_route: Route,
        origin_state: PrefixState,
        queue: deque,
    ) -> None:
        providers = self._providers[origin]
        peers = self._peers[origin]
        customers = self._customers[origin]
        siblings = self._siblings[origin]

        plain_providers = origin_policy.providers_for_prefix(prefix, providers)
        scoped_providers = origin_policy.scoped_providers_for_prefix(prefix)
        peer_targets = origin_policy.peers_for_prefix(prefix, peers)

        exported = self._exported_route(local_route, origin)
        for provider in sorted(plain_providers - scoped_providers):
            queue.append((origin, provider, exported))
            origin_state.announced_to.add(provider)
        for provider in sorted(scoped_providers):
            scoped = exported.with_communities(
                exported.communities.add(scoped_community(provider))
            )
            queue.append((origin, provider, scoped))
            origin_state.announced_to.add(provider)
        for target in sorted(peer_targets) + sorted(customers) + sorted(siblings):
            queue.append((origin, target, exported))
            origin_state.announced_to.add(target)

    def _receive_announcement(
        self,
        sender: ASN,
        receiver: ASN,
        route: Route,
        states: dict[ASN, PrefixState],
        queue: deque,
    ) -> None:
        if route.as_path.has_loop_for(receiver):
            return
        relationship = self.graph.relationship(receiver, sender)
        if relationship is None:
            raise SimulationError(
                f"AS{sender} announced a route to non-neighbor AS{receiver}"
            )
        policy = self.assignment.policy_for(receiver)
        local_pref = policy.import_local_pref(sender, relationship, route.prefix)
        communities = route.communities
        if policy.community_plan is not None:
            index = self._index_of_neighbor(receiver, sender)
            communities = communities.add(
                policy.community_plan.community_for(relationship, index)
            )
        imported = Route(
            prefix=route.prefix,
            as_path=route.as_path,
            local_pref=local_pref,
            origin=route.origin,
            med=route.med,
            communities=communities,
            source=RouteSource.EBGP,
            neighbor_kind=_RELATIONSHIP_TO_KIND[relationship],
            learned_from=sender,
        )
        state = states.setdefault(receiver, PrefixState())
        previous_best = state.best
        state.candidates[sender] = imported
        state.best = self.decision.select_best(list(state.candidates.values()))
        if previous_best is not None and self._same_route(previous_best, state.best):
            return
        self._export(receiver, state, queue)

    def _receive_withdrawal(
        self,
        sender: ASN,
        receiver: ASN,
        states: dict[ASN, PrefixState],
        queue: deque,
    ) -> None:
        state = states.get(receiver)
        if state is None or sender not in state.candidates:
            return
        previous_best = state.best
        del state.candidates[sender]
        state.best = self.decision.select_best(list(state.candidates.values()))
        if previous_best is not None and self._same_route(previous_best, state.best):
            return
        self._export(receiver, state, queue)

    def _export(self, asn: ASN, state: PrefixState, queue: deque) -> None:
        targets = self._export_targets(asn, state.best)
        # Withdraw from neighbors that no longer receive an announcement.
        for neighbor in sorted(state.announced_to - targets):
            queue.append((asn, neighbor, None))
        if targets:
            exported = self._exported_route(state.best, asn)
            for neighbor in sorted(targets):
                queue.append((asn, neighbor, exported))
        state.announced_to = targets

    def _export_targets(self, asn: ASN, best: Route | None) -> set[ASN]:
        """The neighbors that receive ``asn``'s current best route."""
        if best is None:
            return set()
        policy = self.assignment.policy_for(asn)
        if not best.is_local and self._is_scoped_at(best, asn):
            # The customer asked this AS not to propagate the route further.
            return set()
        targets: set[ASN] = set()
        for customer in self._customers[asn]:
            if customer != best.next_hop_as:
                targets.add(customer)
        for sibling in self._siblings[asn]:
            if sibling != best.next_hop_as:
                targets.add(sibling)
        from_customer_or_local = best.is_local or best.neighbor_kind in (
            NeighborKind.CUSTOMER,
            NeighborKind.SIBLING,
        )
        if not from_customer_or_local:
            return targets
        allowed_providers = policy.export_customer_prefixes_to
        for provider in self._providers[asn]:
            if provider == best.next_hop_as:
                continue
            if (
                not best.is_local
                and allowed_providers is not None
                and provider not in allowed_providers
            ):
                continue
            targets.add(provider)
        for peer in self._peers[asn]:
            if peer != best.next_hop_as:
                targets.add(peer)
        return targets

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _exported_route(route: Route, announcer: ASN) -> Route:
        """Return ``route`` as announced by ``announcer`` to a neighbor."""
        as_path = route.as_path if route.is_local else route.as_path.prepend(announcer)
        return Route(
            prefix=route.prefix,
            as_path=as_path,
            origin=route.origin,
            med=route.med,
            communities=route.communities,
            source=RouteSource.EBGP,
            learned_from=announcer,
        )

    @staticmethod
    def _is_scoped_at(route: Route, asn: ASN) -> bool:
        """``True`` if the route carries a scoped-announcement community for ``asn``."""
        marker = Community(asn % 65536, SCOPED_ANNOUNCEMENT_VALUE)
        return route.communities.has(marker)

    @staticmethod
    def _same_route(left: Route, right: Route | None) -> bool:
        if right is None:
            return False
        # Compare the full wire-visible signature, ORIGIN included: a best
        # route that changes only in ORIGIN still changes what neighbors use
        # at decision step 3 and must be re-announced.
        return left.export_signature == right.export_signature

    def _index_of_neighbor(self, asn: ASN, neighbor: ASN) -> int:
        index_map = self._neighbor_index.get(asn)
        if index_map is None:
            index_map = {n: i for i, n in enumerate(sorted(self.graph.neighbors(asn)))}
            self._neighbor_index[asn] = index_map
        return index_map.get(neighbor, 0)

    def _record_observed(
        self, states: dict[ASN, PrefixState], tables: dict[ASN, LocRib]
    ) -> None:
        for asn in self.observed_ases:
            state = states.get(asn)
            if state is None:
                continue
            table = tables[asn]
            for route in state.candidates.values():
                table.add_route(route)
