"""Graph + policy compilation for the fast propagation core.

:func:`compile_topology` lowers an annotated AS graph and a
:class:`~repro.simulation.policies.PolicyAssignment` into flat arrays indexed
by *dense AS ids* (0..n-1, assigned in ascending AS-number order so sorting
by id equals sorting by ASN, which is what keeps the fast engine's message
schedule identical to the legacy engine's):

* a flat adjacency in CSR slot order (rows sorted by neighbor AS number)
  with a per-row ``nbr_slot`` map for O(1) edge lookup;
* per-edge import decisions resolved once into three parallel columns
  indexed by the receiver-side CSR slot — ``edge_lp`` (base LOCAL_PREF:
  neighbor override or relationship scheme), ``edge_tag`` (community tag
  the receiver attaches, ``-1`` when it does not tag) and ``edge_rel``
  (relationship code) — plus a sparse ``edge_overrides`` map holding the
  receiver's per-prefix LOCAL_PREF overrides for the few slots that have
  any;
* per-AS export templates for the three route classes of Section 2.2.2
  (locally originated, learned from a customer/sibling, learned from a
  peer/provider), with the transit-level selective-export restriction
  already applied.  Each template is a pre-sorted tuple of
  ``(target, slot)`` pairs, where ``slot`` is the *receiver-side* CSR slot
  of the edge — so the engine's hot loop never looks an edge up;
* a per-AS ``sink`` flag: the AS is not observed and its ``exp_down``
  template (customers plus siblings) is empty, so a route it learns (only
  ever from a peer or a provider) is never exported, and its table is
  never read.  The engine drops a message to a sink once it is counted;
* per-(origin, prefix) seed plans replaying the origin's selective /
  scoped / peer-withholding export policy as ordered announcement groups.
  A plan carries its community sets by value, so it means the same thing
  to every engine core and :func:`compile_seeds` can re-lower one origin's
  plans after its export policy changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.bgp.attributes import Community
from repro.exceptions import SimulationError
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.simulation.policies import SCOPED_ANNOUNCEMENT_VALUE, PolicyAssignment
from repro.simulation.rib import REL_CUSTOMER, REL_PEER, REL_PROVIDER, REL_SIBLING
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import Relationship

#: Dense relationship codes (what the *sender* is to the receiving AS) are
#: the columnar RIB's candidate kind codes, so the engine's candidates carry
#: their RIB kind (``KIND_LOCAL`` for an originated route) unchanged.
_REL_CODE = {
    Relationship.CUSTOMER: REL_CUSTOMER,
    Relationship.PEER: REL_PEER,
    Relationship.PROVIDER: REL_PROVIDER,
    Relationship.SIBLING: REL_SIBLING,
}

#: An announcement fan-out: ((target dense id, receiver-side CSR slot), ...).
TargetPairs = tuple[tuple[int, int], ...]

#: A community set in the engine's run form: its ``(asn, value)`` pairs.
CommunityPairs = frozenset[tuple[int, int]]

_NO_COMMUNITIES: CommunityPairs = frozenset()


@dataclass(frozen=True)
class SeedPlan:
    """The origin's opening announcements for one prefix.

    Plans compare and hash by value; the fast engine keys its task memo on
    them.

    Attributes:
        groups: ordered announcement groups ``(target pairs, community
            set)``; the set is empty for a plain announcement and holds the
            provider's scoped marker for a scoped one.  Flattened, the
            groups enqueue targets in the exact order the legacy engine
            does (plain providers, scoped providers, then peers + customers
            + siblings).
        announced: the set of seeded targets (the origin's initial
            ``announced_to``).
    """

    groups: tuple[tuple[TargetPairs, CommunityPairs], ...]
    announced: frozenset[int]


@dataclass
class CompiledTopology:
    """The flat, integer-indexed form of one (graph, policy assignment) pair.

    All per-AS arrays are indexed by dense id; the ``edge_*`` columns are
    indexed by CSR slot (``nbr_slot[u][v]``).
    """

    asns: tuple[ASN, ...]
    index_of: dict[ASN, int]
    #: Per-AS edge lookup: neighbor dense id -> CSR slot (rows sorted by
    #: neighbor ASN; slots enumerate edges in row-major order).
    nbr_slot: list[dict[int, int]]
    #: Per-edge import decisions, three parallel columns indexed by the
    #: *receiver's* CSR slot: base LOCAL_PREF, tag id into
    #: ``tag_communities`` (-1 when the receiver does not tag), and the
    #: relationship code of the sender.
    edge_lp: list[int]
    edge_tag: list[int]
    edge_rel: list[int]
    #: Sparse per-prefix LOCAL_PREF overrides: slot -> {prefix: lp}, present
    #: only for slots whose receiver has prefix-based overrides (edges of
    #: one receiver share a single dict).
    edge_overrides: dict[int, dict[Prefix, int]]
    tag_communities: list[Community]
    # Per-AS export state.
    scoped_marker: list[tuple[int, int]]  # (asn % 65536, SCOPED_ANNOUNCEMENT_VALUE)
    exp_local: list[TargetPairs]
    exp_local_set: list[frozenset[int]]
    exp_customer: list[TargetPairs]
    exp_down: list[TargetPairs]
    # Origination.
    origin_tasks: list[tuple[int, Prefix]]
    seeds: dict[tuple[int, Prefix], SeedPlan]
    # Observation.
    observed: tuple[int, ...]
    #: Per-AS: not observed and ``exp_down`` empty (no customer, no
    #: sibling).  Such an AS never re-sends a route it learns and is never
    #: read, so the engine counts a message to it and decides nothing.
    sink: list[bool]

    @property
    def as_count(self) -> int:
        """Number of ASes in the compiled graph."""
        return len(self.asns)

    def pairs_from(self, sender_idx: int, targets: list[int]) -> TargetPairs:
        """Lower a target id list into (target, receiver-side slot) pairs.

        Raises:
            SimulationError: if a target is not a neighbor of the sender.
        """
        pairs = []
        for target in targets:
            slot = self.nbr_slot[target].get(sender_idx)
            if slot is None:
                raise SimulationError(
                    f"AS{self.asns[sender_idx]} announced a route to "
                    f"non-neighbor AS{self.asns[target]}"
                )
            pairs.append((target, slot))
        return tuple(pairs)


def compile_seeds(
    topology: CompiledTopology,
    internet: SyntheticInternet,
    assignment: PolicyAssignment,
    origins: Iterable[ASN],
) -> None:
    """Lower each origin's export policy into the seed plans of its prefixes.

    Replaces the plans in ``topology.seeds`` in place.  This is the one
    place an origin's export policy is lowered: :func:`compile_topology`
    calls it for every origin, and the fast engine's ``reseed`` for the
    origins whose policy changed since.

    Raises:
        SimulationError: if an origin is not in the graph, or its policy
            announces to a non-neighbor.
    """
    index_of = topology.index_of
    for origin in origins:
        origin_idx = index_of.get(origin)
        if origin_idx is None:
            raise SimulationError(f"origin AS{origin} is not in the graph")
        by_rel: dict[int, list[ASN]] = {code: [] for code in _REL_CODE.values()}
        for neighbor, relationship in internet.graph.neighbor_items(origin):
            by_rel[_REL_CODE[relationship]].append(neighbor)
        policy = assignment.policy_for(origin)
        for prefix in internet.prefixes_of(origin):
            plain = policy.providers_for_prefix(prefix, by_rel[REL_PROVIDER])
            scoped = policy.scoped_providers_for_prefix(prefix)
            peer_targets = policy.peers_for_prefix(prefix, by_rel[REL_PEER])

            groups: list[tuple[TargetPairs, CommunityPairs]] = []
            plain_targets = [index_of[p] for p in sorted(plain - scoped)]
            if plain_targets:
                groups.append(
                    (topology.pairs_from(origin_idx, plain_targets), _NO_COMMUNITIES)
                )
            for provider in sorted(scoped):
                provider_idx = index_of[provider]
                groups.append(
                    (
                        topology.pairs_from(origin_idx, [provider_idx]),
                        frozenset((topology.scoped_marker[provider_idx],)),
                    )
                )
            rest = [
                index_of[t]
                for t in sorted(peer_targets)
                + sorted(by_rel[REL_CUSTOMER])
                + sorted(by_rel[REL_SIBLING])
            ]
            if rest:
                groups.append((topology.pairs_from(origin_idx, rest), _NO_COMMUNITIES))
            announced = frozenset(pair[0] for pairs, _ in groups for pair in pairs)
            topology.seeds[(origin_idx, prefix)] = SeedPlan(
                groups=tuple(groups), announced=announced
            )


def compile_topology(
    internet: SyntheticInternet,
    assignment: PolicyAssignment,
    observed_ases: list[ASN] | None = None,
) -> CompiledTopology:
    """Compile a synthetic Internet + policy assignment for the fast engine.

    Args:
        internet: the synthetic Internet (graph + prefix ownership).
        assignment: per-AS policies; ASes without an explicit policy get the
            default-typical one (same behaviour as the legacy engine).
        observed_ases: ASes whose tables the engine will retain; defaults to
            the Tier-1 clique, mirroring the legacy engine.
    """
    graph = internet.graph
    asns = tuple(sorted(graph.ases()))
    index_of = {asn: i for i, asn in enumerate(asns)}
    observed = tuple(
        sorted(
            index_of[asn]
            for asn in set(observed_ases if observed_ases is not None else internet.tier1)
        )
    )

    nbr_slot: list[dict[int, int]] = []
    edge_lp: list[int] = []
    edge_tag: list[int] = []
    edge_rel: list[int] = []
    edge_overrides: dict[int, dict[Prefix, int]] = {}
    tag_communities: list[Community] = []
    tag_index: dict[Community, int] = {}
    scoped_marker: list[tuple[int, int]] = []

    neighbor_lists: dict[ASN, dict[int, list[ASN]]] = {}

    for asn in asns:
        policy = assignment.policy_for(asn)
        scheme = policy.local_pref
        plan = policy.community_plan
        overrides = policy.neighbor_local_pref
        overrides_map = dict(policy.prefix_local_pref) or None
        row: dict[int, int] = {}
        by_rel: dict[int, list[ASN]] = {
            REL_CUSTOMER: [],
            REL_PEER: [],
            REL_PROVIDER: [],
            REL_SIBLING: [],
        }
        # Sorting by (neighbor, relationship) is sorting by neighbor ASN:
        # each neighbor appears exactly once per row.
        for position, (neighbor, relationship) in enumerate(
            sorted(graph.neighbor_items(asn))
        ):
            slot = len(edge_lp)
            row[index_of[neighbor]] = slot
            code = _REL_CODE[relationship]
            by_rel[code].append(neighbor)
            if neighbor in overrides:
                lp = overrides[neighbor]
            else:
                lp = scheme.value_for(relationship)
            if plan is None:
                tag_id = -1
            else:
                tag = plan.community_for(relationship, position)
                tag_id = tag_index.get(tag)
                if tag_id is None:
                    tag_id = len(tag_communities)
                    tag_communities.append(tag)
                    tag_index[tag] = tag_id
            edge_lp.append(lp)
            edge_tag.append(tag_id)
            edge_rel.append(code)
            if overrides_map is not None:
                edge_overrides[slot] = overrides_map
        nbr_slot.append(row)
        neighbor_lists[asn] = by_rel

        scoped_marker.append((asn % 65536, SCOPED_ANNOUNCEMENT_VALUE))

    topology = CompiledTopology(
        asns=asns,
        index_of=index_of,
        nbr_slot=nbr_slot,
        edge_lp=edge_lp,
        edge_tag=edge_tag,
        edge_rel=edge_rel,
        edge_overrides=edge_overrides,
        tag_communities=tag_communities,
        scoped_marker=scoped_marker,
        exp_local=[],
        exp_local_set=[],
        exp_customer=[],
        exp_down=[],
        origin_tasks=[],
        seeds={},
        observed=observed,
        sink=[],
    )

    # Export templates need every CSR row in place (they store the
    # *receiver-side* slot of each edge), hence the second pass.
    for asn in asns:
        policy = assignment.policies[asn]
        by_rel = neighbor_lists[asn]
        sender_idx = index_of[asn]
        customers = [index_of[a] for a in by_rel[REL_CUSTOMER]]
        providers = [index_of[a] for a in by_rel[REL_PROVIDER]]
        peers = [index_of[a] for a in by_rel[REL_PEER]]
        siblings = [index_of[a] for a in by_rel[REL_SIBLING]]
        allowed = policy.export_customer_prefixes_to
        allowed_providers = (
            providers
            if allowed is None
            else [p for p in providers if asns[p] in allowed]
        )
        local = sorted(customers + siblings + providers + peers)
        topology.exp_local.append(topology.pairs_from(sender_idx, local))
        topology.exp_local_set.append(frozenset(local))
        topology.exp_customer.append(
            topology.pairs_from(
                sender_idx, sorted(customers + siblings + allowed_providers + peers)
            )
        )
        topology.exp_down.append(
            topology.pairs_from(sender_idx, sorted(customers + siblings))
        )
    observed_set = set(observed)
    topology.sink.extend(
        not down and idx not in observed_set
        for idx, down in enumerate(topology.exp_down)
    )

    origins = sorted(internet.originated)
    compile_seeds(topology, internet, assignment, origins)
    topology.origin_tasks.extend(
        (index_of[origin], prefix)
        for origin in origins
        for prefix in internet.prefixes_of(origin)
    )
    return topology
