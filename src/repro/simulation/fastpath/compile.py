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
* per-(origin, prefix) seed plans replaying the origin's selective /
  scoped / peer-withholding export policy as ordered announcement groups;
* an initial community-set intern table (id 0 is the empty set; scoped
  announcements intern their "do not propagate" marker at compile time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.attributes import EMPTY_COMMUNITIES, Community, CommunitySet
from repro.exceptions import SimulationError
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.simulation.policies import (
    SCOPED_ANNOUNCEMENT_VALUE,
    ASPolicy,
    PolicyAssignment,
    scoped_community,
)
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


@dataclass(frozen=True)
class SeedPlan:
    """The origin's opening announcements for one prefix.

    Attributes:
        groups: ordered announcement groups ``(target pairs, community-set
            id)``; flattened, the groups enqueue targets in the exact order
            the legacy engine does (plain providers, scoped providers, then
            peers + customers + siblings).
        announced: the set of seeded targets (the origin's initial
            ``announced_to``).
    """

    groups: tuple[tuple[TargetPairs, int], ...]
    announced: frozenset[int]


@dataclass
class CompiledTopology:
    """The flat, integer-indexed form of one (graph, policy assignment) pair.

    All per-AS arrays are indexed by dense id; the ``edge_*`` columns are
    indexed by CSR slot (``nbr_slot[u][v]``).  ``comm_table`` / ``comm_index``
    hold the *initial* community-set intern table; engines copy and extend it
    per run.
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
    honor_scoped: list[bool]
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
    # Community-set interning (initial table; engines copy then extend).
    comm_table: list[CommunitySet] = field(default_factory=lambda: [EMPTY_COMMUNITIES])
    comm_index: dict[CommunitySet, int] = field(
        default_factory=lambda: {EMPTY_COMMUNITIES: 0}
    )

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


def compile_seed_plan(
    topology: CompiledTopology,
    policy: ASPolicy,
    providers: list[ASN],
    peers: list[ASN],
    customers: list[ASN],
    siblings: list[ASN],
    prefix: Prefix,
    intern_comm,
) -> SeedPlan:
    """Lower one origin's export policy for one prefix into a seed plan.

    ``intern_comm`` maps a :class:`CommunitySet` to its intern id in the
    topology's initial table.
    """
    index_of = topology.index_of
    origin_idx = index_of[policy.asn]
    plain = policy.providers_for_prefix(prefix, providers)
    scoped = policy.scoped_providers_for_prefix(prefix)
    peer_targets = policy.peers_for_prefix(prefix, peers)

    groups: list[tuple[TargetPairs, int]] = []
    plain_targets = [index_of[p] for p in sorted(plain - scoped)]
    if plain_targets:
        groups.append((topology.pairs_from(origin_idx, plain_targets), 0))
    for provider in sorted(scoped):
        marked = EMPTY_COMMUNITIES.add(scoped_community(provider))
        groups.append(
            (
                topology.pairs_from(origin_idx, [index_of[provider]]),
                intern_comm(marked),
            )
        )
    rest = [
        index_of[t] for t in sorted(peer_targets) + sorted(customers) + sorted(siblings)
    ]
    if rest:
        groups.append((topology.pairs_from(origin_idx, rest), 0))
    announced = frozenset(
        pair[0] for pairs, _ in groups for pair in pairs
    )
    return SeedPlan(groups=tuple(groups), announced=announced)


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
    honor_scoped: list[bool] = []
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

        honor_scoped.append(policy.honor_scoped_communities)
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
        honor_scoped=honor_scoped,
        scoped_marker=scoped_marker,
        exp_local=[],
        exp_local_set=[],
        exp_customer=[],
        exp_down=[],
        origin_tasks=[],
        seeds={},
        observed=observed,
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

    def intern_comm(communities: CommunitySet) -> int:
        comm_id = topology.comm_index.get(communities)
        if comm_id is None:
            comm_id = len(topology.comm_table)
            topology.comm_table.append(communities)
            topology.comm_index[communities] = comm_id
        return comm_id

    for origin in sorted(internet.originated):
        if origin not in index_of:
            raise SimulationError(f"origin AS{origin} is not in the graph")
        origin_idx = index_of[origin]
        by_rel = neighbor_lists[origin]
        policy = assignment.policy_for(origin)
        for prefix in internet.prefixes_of(origin):
            topology.origin_tasks.append((origin_idx, prefix))
            topology.seeds[(origin_idx, prefix)] = compile_seed_plan(
                topology,
                policy,
                by_rel[REL_PROVIDER],
                by_rel[REL_PEER],
                by_rel[REL_CUSTOMER],
                by_rel[REL_SIBLING],
                prefix,
                intern_comm,
            )
    return topology
