"""The interned flat-graph propagation engine.

:class:`FastPropagationEngine` replays the legacy engine's message-passing
algorithm — same FIFO schedule, same export rules, same budget accounting —
over the arrays of a :class:`~repro.simulation.fastpath.compile.CompiledTopology`.
Four things make it fast:

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
* **Sinks decide nothing.**  A *sink* (``CompiledTopology.sink``) is an
  unobserved AS with neither customers nor siblings; on the presets that is
  most ASes, and most announcements go to one (78% on ``standard``).  An
  announcement to a sink is counted and then dropped, which is exact:

  - a sink never relays: every candidate it can learn comes from a peer or
    a provider, so ``_export`` picks ``exp_down`` minus the next hop, which
    is empty; its ``announced`` set stays empty, so it never withdraws
    either;
  - nothing reads a sink's state: :meth:`_Core.observed_rows` visits
    observed ASes only, and a sink that originates a prefix is still seeded
    by its plan (every message back to it for that prefix is a loop);
  - counting is untouched: the group-level count and the per-message
    overflow count that fixes the truncation point both run before the
    check, and a withdrawal to a sink already finds no state for the task
    (or, at an originating sink, no candidate from the sender);
  - no id moves: the intern tables lose the sinks' tag-adds, and
    :meth:`RibWriter.finish <repro.simulation.rib.RibWriter.finish>`
    re-interns over the final rows (the argument the task signature below
    rests on too).

Every prefix runs in the calling process, in task order, through one
:class:`_Core` whose intern tables are shared across prefixes.  Parallelism
lives one level up, in ``repro sweep``, where whole cases are independent
and nothing has to be merged.

**Each task signature propagates once.**  A task — one origin announcing
one prefix — has the *signature* ``(origin id, SeedPlan, prefix or
None)``, where the prefix is kept only if some AS's ``prefix_local_pref``
override names it.  The signature fixes the task's outcome (observed rows,
message count, truncation) over a given compiled topology because:

* :meth:`_Core.run_task` reads the prefix in one place only, the per-prefix
  LOCAL_PREF override lookup, and an unnamed prefix never matches there;
* per-AS state is reset by generation stamp, so no task sees another's;
* the intern tables and memos are pure caches: a repeated path, set or
  target list gets the id it got first;
* :meth:`RibWriter.finish <repro.simulation.rib.RibWriter.finish>`
  re-interns over the final rows, so which task wrote a row changes no id.

:meth:`FastPropagationEngine.run` therefore propagates each distinct
signature once and writes its rows for every member prefix.  It keeps the
signatures it used for the next ``run()`` on the same engine, so after
:meth:`FastPropagationEngine.reseed` only the tasks whose plans changed
propagate again (the persistence timeline's snapshots).

The ORIGIN attribute is constant (``originate`` always emits ``Origin.IGP``
and no policy knob rewrites it), so it is excluded from the decision key and
the re-announcement signature; the legacy engine relies on the same
invariant.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.bgp.attributes import DEFAULT_LOCAL_PREF
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.simulation.fastpath.compile import (
    CommunityPairs,
    CompiledTopology,
    SeedPlan,
    compile_seeds,
    compile_topology,
)
from repro.simulation.policies import PolicyAssignment
from repro.simulation.propagation import SimulationResult
from repro.simulation.rib import (
    KIND_LOCAL,
    REL_CUSTOMER,
    REL_SIBLING,
    CandidateRow,
    RibWriter,
)
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
    target memos) and the recycled state slots; one core serves every task
    of its engine, across runs, so interned structure is shared across
    prefixes and the ids in a memoised task's rows stay valid.
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
        # Community-set interning; id 0 is the empty set.  The run
        # representation of a set is a frozenset of (asn, value) int pairs —
        # value-deduplicated so id equality is set equality; no CommunitySet
        # is built while propagating.
        self._comm_members: list[CommunityPairs] = []
        self._comm_lookup: dict[CommunityPairs, int] = {}
        self._intern_comm(frozenset())
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

    def _intern_comm(self, members: CommunityPairs) -> int:
        comm_id = self._comm_lookup.get(members)
        if comm_id is None:
            comm_id = len(self._comm_members)
            self._comm_lookup[members] = comm_id
            self._comm_members.append(members)
        return comm_id

    def _comm_add(self, comm_id: int, tag_id: int) -> int:
        new_id = self._intern_comm(self._comm_members[comm_id] | {self._tag_pairs[tag_id]})
        self._comm_tag_memos[tag_id][comm_id] = new_id
        return new_id

    # -- propagation --------------------------------------------------------

    def run_task(self, origin_idx: int, prefix: Prefix, seed: SeedPlan) -> tuple[int, bool]:
        """Propagate one prefix to a fixed point (or the message budget).

        Returns ``(messages processed, truncated?)``; the resulting per-AS
        states stay in the core's slot array (current generation) until the
        next ``run_task`` call — read them via :meth:`observed_rows`.  The
        hot loop is deliberately inlined: per-message work is a handful of
        array and dict operations over interned ids.
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
        sink = topology.sink
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
        for pairs, communities in seed.groups:
            queue.append((origin_idx, pairs, local_path, self._intern_comm(communities)))

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
                # Counted above; a sink's decision can reach no table.
                if sink[receiver] or receiver in path:
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
            elif self._scoped_marker[asn_idx] in self._comm_members[best[3]]:
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

    def observed_rows(self) -> list[tuple[int, list[CandidateRow], int]]:
        """The observed ASes' entries after the most recent ``run_task``.

        One ``(observed slot, candidate rows, best position)`` per observed
        AS holding candidates: the candidates in insertion order as RIB rows
        (interned path and community ids, LOCAL_PREF, kind, learned-from
        AS).  A state whose candidates were all withdrawn yields no entry at
        all, exactly like the legacy ``_record_observed``.  The rows name
        no prefix, so one task's rows serve every prefix of its signature.
        """
        asns = self.topology.asns
        states = self._states
        gen = self._generation
        entries = []
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
            entries.append((slot, rows, best))
        return entries


class FastPropagationEngine:
    """Drop-in fast replacement for :class:`PropagationEngine`.

    Args:
        internet: the synthetic Internet (graph + prefix ownership).
        assignment: per-AS policies.
        observed_ases: ASes whose final tables are retained; defaults to the
            Tier-1 clique.
        message_budget_per_prefix: safety valve against policy-induced
            oscillation (same semantics as the legacy engine).

    The constructor compiles the topology; :meth:`run` propagates, and
    :meth:`reseed` re-lowers origins whose export policy changed between
    two runs.
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
        self._core = _Core(self.compiled, message_budget_per_prefix)
        # The prefixes some LOCAL_PREF override names: the only prefixes a
        # task's outcome can depend on.
        self._overridden = frozenset(
            prefix
            for overrides in self.compiled.edge_overrides.values()
            for prefix in overrides
        )
        # Signature -> (messages, truncated?, observed rows) of the last run.
        self._memo: dict[tuple, tuple[int, bool, list]] = {}

    # -- public API ----------------------------------------------------------

    def reseed(self, origins: Iterable[ASN]) -> None:
        """Re-lower the seed plans of ``origins`` from the current assignment.

        Call it after changing those origins' export policies (announced,
        scoped or withheld-from neighbors) in place; the next :meth:`run`
        propagates only the tasks whose plans changed.  Every other compiled
        field is read once, at construction: a change to any other policy
        needs a new engine.
        """
        compile_seeds(self.compiled, self.internet, self.assignment, sorted(origins))

    def run(self) -> SimulationResult:
        """Propagate every originated prefix and return the observed tables.

        Each distinct task signature propagates once (see the module
        docstring); a signature the previous ``run()`` on this engine used
        is not propagated again.  Observed entries go straight from the
        per-AS states into the columnar RIB; no route object is built.
        """
        core = self._core
        seeds = self.compiled.seeds
        overridden = self._overridden
        previous = self._memo
        memo: dict[tuple, tuple[int, bool, list]] = {}
        writer = RibWriter(self.observed_ases, core.path_asns, core.community_pairs)
        message_count = 0
        truncated: list[Prefix] = []
        for origin_idx, prefix in self.compiled.origin_tasks:
            seed = seeds[(origin_idx, prefix)]
            signature = (origin_idx, seed, prefix if prefix in overridden else None)
            outcome = memo.get(signature) or previous.get(signature)
            if outcome is None:
                processed, cut = core.run_task(origin_idx, prefix, seed)
                outcome = (processed, cut, core.observed_rows())
            memo[signature] = outcome
            processed, cut, entries = outcome
            message_count += processed
            if cut:
                truncated.append(prefix)
            for slot, rows, best in entries:
                writer.add(slot, prefix, rows, best)
        self._memo = memo
        return SimulationResult(
            rib=writer.finish(),
            message_count=message_count,
            truncated_prefixes=truncated,
        )
