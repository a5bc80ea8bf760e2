"""The interned flat-graph propagation engine.

:class:`FastPropagationEngine` replays the legacy engine's message-passing
algorithm — same FIFO schedule, same export rules, same budget accounting —
over the arrays of a :class:`~repro.simulation.fastpath.compile.CompiledTopology`.
Three things make it fast:

* **No per-message object churn.**  AS paths and community sets are interned
  (a path/set is a small integer id; prepends and tag-adds are memo-table
  hits after first use), candidates are plain tuples, and the per-edge
  policy/relationship work of the legacy engine is a couple of array reads
  off a precompiled receiver-side edge slot.
* **Grouped fan-out.**  The legacy engine enqueues one message object per
  (sender, receiver) pair.  Exports fan the same wire route out to many
  neighbors, so the queue holds one *group* per export — the pre-sorted
  target tuple plus the interned route — and receivers are expanded at pop
  time.  The flattened schedule (and the message budget accounting) is
  identical; the allocation count is not.
* **Incremental best-route selection.**  The legacy engine re-scans every
  candidate on every message.  Within one AS's candidate set every route
  comes from a distinct next-hop AS, so MED never compares, IGP metric and
  router id are constant, and the decision process collapses to the total
  order ``(-LOCAL_PREF, path length, insertion sequence)`` — the insertion
  sequence reproduces the legacy tie-break "the incumbent wins a complete
  tie" exactly.  A new announcement therefore challenges the incumbent in
  O(1); a full re-scan happens only when the incumbent itself is displaced
  or withdrawn.

Every prefix runs in the calling process, in task order, through one
:class:`_Core` whose intern tables are shared across prefixes.  Parallelism
lives one level up, in ``repro sweep``, where whole cases are independent
and nothing has to be merged.

The ORIGIN attribute is constant (``originate`` always emits ``Origin.IGP``
and no policy knob rewrites it), so it is excluded from the decision key and
the re-announcement signature; the legacy engine relies on the same
invariant.
"""

from __future__ import annotations

from collections import deque

from repro.bgp.attributes import DEFAULT_LOCAL_PREF
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.simulation.fastpath.compile import CompiledTopology, SeedPlan, compile_topology
from repro.simulation.policies import PolicyAssignment
from repro.simulation.propagation import SimulationResult
from repro.simulation.rib import KIND_LOCAL, REL_CUSTOMER, REL_SIBLING, RibWriter
from repro.topology.generator import SyntheticInternet

_EMPTY_SET: frozenset[int] = frozenset()

# Candidate tuple layout: (local_pref, path_len, path_id, comm_id, kind, seq).
_LP, _PLEN, _PATH, _COMM, _KIND, _SEQ = range(6)


class _State:
    """Per-AS state for the prefix currently being propagated (fast form).

    States live in a per-core slot array and are recycled between prefixes:
    a state whose ``gen`` stamp is stale is logically absent and is reset
    lazily on first touch, so steady-state propagation allocates nothing.
    """

    __slots__ = (
        "cand", "best", "best_sender", "bk0", "bk1", "bk2",
        "announced", "counter", "gen",
    )

    def __init__(self, gen: int) -> None:
        self.cand: dict[int, tuple] = {}
        self.best: tuple | None = None
        self.best_sender: int | None = None
        # The incumbent's decision key (-local_pref, path_len, seq), held as
        # three scalars so the per-message challenge needs no tuple.  Only
        # meaningful while ``best_sender`` is not None.
        self.bk0 = 0
        self.bk1 = 0
        self.bk2 = 0
        # Neighbors currently holding this AS's announcement; a frozenset
        # shared with the export-target memo (exports replace it wholesale).
        self.announced: frozenset[int] = _EMPTY_SET
        self.counter = 0
        self.gen = gen

    def reset(self, gen: int) -> None:
        self.cand.clear()
        self.best = None
        self.best_sender = None
        self.announced = _EMPTY_SET
        self.counter = 0
        self.gen = gen


class _Core:
    """Propagation over a compiled topology.

    Holds the intern tables (paths, community sets, export
    target memos) and the recycled state slots; one core serves every prefix
    of a run, so interned structure is shared across prefixes.
    """

    def __init__(self, topology: CompiledTopology, message_budget: int) -> None:
        self.topology = topology
        self.message_budget = message_budget
        # Recycled per-AS state slots, validated by generation stamp.
        self._states: list[_State | None] = [None] * topology.as_count
        self._generation = 0
        # Path interning: id -> tuple of dense AS ids (receiver-first).
        self._paths: list[tuple[int, ...]] = []
        self._path_index: dict[tuple[int, ...], int] = {}
        self._plen: list[int] = []
        self._prepend_memo: dict[tuple[int, int], int] = {}
        # Community-set interning, seeded from the compiled table.  The run
        # representation of a set is a frozenset of (asn, value) int pairs —
        # value-deduplicated so id equality is set equality; no CommunitySet
        # is built while propagating.
        self._comm_members: list[frozenset[tuple[int, int]]] = []
        self._comm_lookup: dict[frozenset[tuple[int, int]], int] = {}
        for communities in topology.comm_table:
            pairs = frozenset((c.asn, c.value) for c in communities.communities)
            self._comm_lookup[pairs] = len(self._comm_members)
            self._comm_members.append(pairs)
        self._tag_pairs = [(t.asn, t.value) for t in topology.tag_communities]
        # Per-tag memo of comm_id -> comm_id-with-tag (int keys, no tuples).
        self._comm_tag_memos: list[dict[int, int]] = [
            {} for _ in topology.tag_communities
        ]
        # Export target memo: (as, class, excluded next hop) -> (pairs, set).
        self._target_memo: dict[tuple[int, bool, int], tuple[tuple, frozenset]] = {}
        # Aliases for the export path (one attribute hop instead of two).
        self._exp_local = topology.exp_local
        self._exp_local_set = topology.exp_local_set
        self._exp_customer = topology.exp_customer
        self._exp_down = topology.exp_down
        self._honor_scoped = topology.honor_scoped
        self._scoped_marker = topology.scoped_marker

    # -- interning ----------------------------------------------------------

    def _intern_path(self, path: tuple[int, ...]) -> int:
        path_id = self._path_index.get(path)
        if path_id is None:
            path_id = len(self._paths)
            self._paths.append(path)
            self._plen.append(len(path))
            self._path_index[path] = path_id
        return path_id

    def _prepend(self, path_id: int, asn_idx: int) -> int:
        key = (path_id, asn_idx)
        new_id = self._prepend_memo.get(key)
        if new_id is None:
            new_id = self._intern_path((asn_idx,) + self._paths[path_id])
            self._prepend_memo[key] = new_id
        return new_id

    def _comm_add(self, comm_id: int, tag_id: int) -> int:
        members = self._comm_members[comm_id] | {self._tag_pairs[tag_id]}
        new_id = self._comm_lookup.get(members)
        if new_id is None:
            new_id = len(self._comm_members)
            self._comm_lookup[members] = new_id
            self._comm_members.append(members)
        self._comm_tag_memos[tag_id][comm_id] = new_id
        return new_id

    # -- propagation --------------------------------------------------------

    def run_task(self, origin_idx: int, prefix: Prefix, seed: SeedPlan) -> tuple[int, bool]:
        """Propagate one prefix to a fixed point (or the message budget).

        Returns ``(messages processed, truncated?)``; the resulting per-AS
        states stay in the core's slot array (current generation) until the
        next ``run_task`` call — read them via :meth:`write_observed` or
        :meth:`states`.  The hot loop is deliberately inlined: per-message
        work is a handful of array and dict operations over interned ids.
        """
        topology = self.topology
        edge_lp = topology.edge_lp
        edge_tag = topology.edge_tag
        edge_rel = topology.edge_rel
        # Per-prefix overrides are sparse; hoist the emptiness check so the
        # common case pays nothing per message.
        overrides_get = topology.edge_overrides.get if topology.edge_overrides else None
        paths = self._paths
        plens = self._plen
        comm_add = self._comm_add
        tag_memos = self._comm_tag_memos
        rescan = self._rescan
        export = self._export
        states = self._states
        gen = self._generation + 1
        self._generation = gen

        origin_state = states[origin_idx]
        if origin_state is None:
            origin_state = states[origin_idx] = _State(gen)
        else:
            origin_state.reset(gen)
        local_path = self._intern_path((origin_idx,))
        local_cand = (DEFAULT_LOCAL_PREF, 1, local_path, 0, KIND_LOCAL, 0)
        origin_state.cand[origin_idx] = local_cand
        origin_state.counter = 1
        origin_state.best = local_cand
        origin_state.best_sender = origin_idx
        origin_state.bk0 = -DEFAULT_LOCAL_PREF
        origin_state.bk1 = 1
        origin_state.bk2 = 0
        origin_state.announced = seed.announced

        # Queue of fan-out groups: (sender, targets, path_id, comm_id).
        # path_id None marks a withdrawal group (targets are plain ids);
        # announcement groups carry (target, receiver-side slot) pairs.
        queue: deque[tuple] = deque()
        for pairs, comm_id in seed.groups:
            queue.append((origin_idx, pairs, local_path, comm_id))

        budget = self.message_budget
        processed = 0
        truncated = False
        popleft = queue.popleft
        append = queue.append
        while queue:
            sender, targets, path_id, group_comm = popleft()

            # Budget accounting is hoisted to the group level: only when this
            # group could cross the budget does the loop count per message
            # (`overflow`), preserving the legacy engine's exact truncation
            # point and total count.
            overflow = processed + len(targets) > budget
            if not overflow:
                processed += len(targets)

            if path_id is None:
                # -- withdrawal group -----------------------------------------
                for receiver in targets:
                    if overflow:
                        processed += 1
                        if processed > budget:
                            truncated = True
                            break
                    state = states[receiver]
                    if state is None or state.gen != gen:
                        continue
                    cand_map = state.cand
                    if sender not in cand_map:
                        continue
                    previous = state.best
                    del cand_map[sender]
                    if sender == state.best_sender:
                        rescan(state)
                    best = state.best
                    if previous is best or (
                        previous is not None
                        and best is not None
                        and previous[2] == best[2]
                        and previous[3] == best[3]
                        and previous[0] == best[0]
                    ):
                        continue
                    export(receiver, state, append)
                if truncated:
                    break
                continue

            # -- announcement group -------------------------------------------
            path = paths[path_id]
            plen = plens[path_id]
            for receiver, slot in targets:
                if overflow:
                    processed += 1
                    if processed > budget:
                        truncated = True
                        break
                if receiver in path:
                    continue
                lp = edge_lp[slot]
                if overrides_get is not None:
                    overrides = overrides_get(slot)
                    if overrides is not None:
                        lp = overrides.get(prefix, lp)
                tag_id = edge_tag[slot]
                rel = edge_rel[slot]
                if tag_id >= 0:
                    comm_id = tag_memos[tag_id].get(group_comm)
                    if comm_id is None:
                        comm_id = comm_add(group_comm, tag_id)
                else:
                    comm_id = group_comm
                state = states[receiver]
                if state is None:
                    state = states[receiver] = _State(gen)
                elif state.gen != gen:
                    state.cand.clear()
                    state.best = None
                    state.best_sender = None
                    state.announced = _EMPTY_SET
                    state.counter = 0
                    state.gen = gen
                cand_map = state.cand
                old = cand_map.get(sender)
                if old is None:
                    seq = state.counter
                    state.counter = seq + 1
                else:
                    seq = old[5]
                cand = (lp, plen, path_id, comm_id, rel, seq)
                cand_map[sender] = cand
                previous = state.best
                nlp = -lp
                best_sender = state.best_sender
                if best_sender is None:
                    state.best = cand
                    state.best_sender = sender
                    state.bk0 = nlp
                    state.bk1 = plen
                    state.bk2 = seq
                elif sender == best_sender:
                    # The incumbent's own update: seq is unchanged, so the
                    # (-lp, plen, seq) <= comparison reduces to two scalars.
                    if nlp < state.bk0 or (nlp == state.bk0 and plen <= state.bk1):
                        state.best = cand
                        state.bk0 = nlp
                        state.bk1 = plen
                    else:
                        rescan(state)
                elif nlp < state.bk0 or (
                    nlp == state.bk0
                    and (
                        plen < state.bk1
                        or (plen == state.bk1 and seq < state.bk2)
                    )
                ):
                    state.best = cand
                    state.best_sender = sender
                    state.bk0 = nlp
                    state.bk1 = plen
                    state.bk2 = seq
                best = state.best
                if previous is best or (
                    previous is not None
                    and previous[2] == best[2]
                    and previous[3] == best[3]
                    and previous[0] == best[0]
                ):
                    continue
                export(receiver, state, append)
            if truncated:
                break

        return processed, truncated

    def _rescan(self, state: _State) -> None:
        """Full re-selection after the incumbent was displaced or withdrawn."""
        best = None
        best_sender = None
        bk0 = bk1 = bk2 = 0
        for sender, cand in state.cand.items():
            nlp = -cand[0]
            plen = cand[1]
            seq = cand[5]
            if (
                best is None
                or nlp < bk0
                or (nlp == bk0 and (plen < bk1 or (plen == bk1 and seq < bk2)))
            ):
                best, best_sender = cand, sender
                bk0, bk1, bk2 = nlp, plen, seq
        state.best = best
        state.best_sender = best_sender
        state.bk0 = bk0
        state.bk1 = bk1
        state.bk2 = bk2

    def _export(self, asn_idx: int, state: _State, append) -> None:
        """Mirror of the legacy ``_export``: withdrawals first, then the
        (pre-sorted) announcements, then the announced-to bookkeeping.

        ``append`` is the queue's bound ``append`` — the caller sits in the
        hot loop and passes it pre-bound.
        """
        best = state.best
        if best is None:
            targets: tuple = ()
            target_set: frozenset[int] = _EMPTY_SET
        else:
            kind = best[4]
            if kind == KIND_LOCAL:
                targets = self._exp_local[asn_idx]
                target_set = self._exp_local_set[asn_idx]
            elif (
                self._honor_scoped[asn_idx]
                and self._scoped_marker[asn_idx] in self._comm_members[best[3]]
            ):
                # The customer asked this AS not to propagate the route further.
                targets = ()
                target_set = _EMPTY_SET
            else:
                from_customer = kind == REL_CUSTOMER or kind == REL_SIBLING
                next_hop = state.best_sender
                memo_key = (asn_idx, from_customer, next_hop)
                cached = self._target_memo.get(memo_key)
                if cached is None:
                    template = (
                        self._exp_customer[asn_idx]
                        if from_customer
                        else self._exp_down[asn_idx]
                    )
                    targets = tuple(p for p in template if p[0] != next_hop)
                    target_set = frozenset(p[0] for p in targets)
                    self._target_memo[memo_key] = (targets, target_set)
                else:
                    targets, target_set = cached
        announced = state.announced
        if announced is not target_set:
            withdrawn = announced - target_set
            if withdrawn:
                append((asn_idx, tuple(sorted(withdrawn)), None, 0))
        if targets:
            if best[4] == KIND_LOCAL:
                exported_path = best[2]
            else:
                exported_path = self._prepend(best[2], asn_idx)
            append((asn_idx, targets, exported_path, best[3]))
        state.announced = target_set

    # -- materialization ----------------------------------------------------

    def path_asns(self, path_id: int) -> tuple[ASN, ...]:
        """An interned path as AS numbers (receiver first)."""
        asns = self.topology.asns
        return tuple(asns[i] for i in self._paths[path_id])

    def community_pairs(self, comm_id: int) -> tuple[tuple[int, int], ...]:
        """An interned community set in the RIB's pair form.

        The pairs keep the member set's iteration order, which is the order
        the RIB's views build a ``CommunitySet`` in.
        """
        return tuple(self._comm_members[comm_id])

    def write_observed(self, prefix: Prefix, writer: RibWriter) -> None:
        """Append the observed ASes' entries for ``prefix`` to ``writer``.

        Reads the most recent ``run_task``'s states: per observed AS, the
        candidates in insertion order as RIB rows (interned path and
        community ids, LOCAL_PREF, kind, learned-from AS) plus the best
        candidate's position.  A state whose candidates were all withdrawn
        is recorded as no entry at all, exactly like the legacy
        ``_record_observed``.
        """
        asns = self.topology.asns
        states = self._states
        gen = self._generation
        for slot, asn_idx in enumerate(self.topology.observed):
            state = states[asn_idx]
            if state is None or state.gen != gen or not state.cand:
                continue
            best_sender = state.best_sender
            best = -1
            rows = []
            for sender, cand in state.cand.items():
                if sender == best_sender:
                    best = len(rows)
                rows.append((cand[2], cand[3], cand[0], cand[4], asns[sender]))
            writer.add(slot, prefix, rows, best)


class FastPropagationEngine:
    """Drop-in fast replacement for :class:`PropagationEngine`.

    Args:
        internet: the synthetic Internet (graph + prefix ownership).
        assignment: per-AS policies.
        observed_ases: ASes whose final tables are retained; defaults to the
            Tier-1 clique.
        message_budget_per_prefix: safety valve against policy-induced
            oscillation (same semantics as the legacy engine).

    The constructor compiles the topology; :meth:`run` propagates.
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
        self.graph = internet.graph
        self.observed_ases = sorted(
            set(observed_ases if observed_ases is not None else internet.tier1)
        )
        self.message_budget_per_prefix = message_budget_per_prefix
        self.compiled = compile_topology(internet, assignment, self.observed_ases)

    # -- public API ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Propagate every originated prefix and return the observed tables.

        Each prefix's observed entries go straight from the per-AS states
        into the columnar RIB; no route object is built.
        """
        core = _Core(self.compiled, self.message_budget_per_prefix)
        seeds = self.compiled.seeds
        writer = RibWriter(self.observed_ases, core.path_asns, core.community_pairs)
        message_count = 0
        truncated: list[Prefix] = []
        for origin_idx, prefix in self.compiled.origin_tasks:
            processed, cut = core.run_task(origin_idx, prefix, seeds[(origin_idx, prefix)])
            message_count += processed
            if cut:
                truncated.append(prefix)
            core.write_observed(prefix, writer)
        return SimulationResult(
            internet=self.internet,
            assignment=self.assignment,
            rib=writer.finish(),
            message_count=message_count,
            truncated_prefixes=truncated,
        )

    # -- helpers -------------------------------------------------------------
