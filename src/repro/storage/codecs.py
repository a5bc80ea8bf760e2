"""Per-stage binary codecs: pipeline artifacts ⇄ deterministic bytes.

Every stage of the :class:`~repro.session.study.Study` pipeline owns a
:class:`StageCodec` that can *lower* its artifact into the primitive-tree
universe of :mod:`repro.storage.packing` and *raise* it back.  The codecs
are what turn the in-process stage cache into a durable, cross-process
store: a sweep worker that finds ``topology/<key>.art`` on disk decodes the
exact synthetic Internet another process generated, bit for bit, instead of
re-running the generator.

The primitive tree is built in a fixed order (dict insertion orders are
preserved explicitly, hash-ordered sets are sorted), so the same artifact
always encodes to the same bytes under any ``PYTHONHASHSEED``.  The golden
test suite asserts byte identity across fresh interpreters.  No stage
artifact holds another stage's artifact, so each codec decodes its bytes
alone: reading a stored propagation artifact loads no topology or policies.

Only the stages that are expensive to rebuild have a codec: topology,
policies, propagation and irr (plus the sweep's ``report`` tier, stored as
plain text).  The observation and analysis stages are derived in memory
from them — rebuilding the inventory and the measurement index from the
stored stages costs no more than decoding a stored copy.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.data.rpsl import AutNumObject, IrrDatabase, PolicyLine
from repro.net.prefix import Prefix
from repro.simulation.policies import ASPolicy, CommunityPlan, LocalPrefScheme, PolicyAssignment
from repro.simulation.propagation import SimulationResult
from repro.simulation.rib import RibColumns
from repro.storage.packing import pack, unpack
from repro.storage.versions import CODEC_VERSIONS
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import AnnotatedASGraph, Relationship
from repro.topology.hierarchy import classify_tiers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.stages import PolicyStageArtifact

#: Fixed relationship order backing the integer codes in encoded trees.
_RELATIONSHIPS = (
    Relationship.CUSTOMER,
    Relationship.PEER,
    Relationship.PROVIDER,
    Relationship.SIBLING,
)
_REL_CODE = {relationship: code for code, relationship in enumerate(_RELATIONSHIPS)}


def _lower_prefix(prefix: Prefix) -> tuple[int, int]:
    """One prefix as a ``(network, length)`` pair."""
    return (prefix.network, prefix.length)


def _raise_prefix(pair: tuple[int, int]) -> Prefix:
    """Rebuild a prefix from its ``(network, length)`` pair."""
    network, length = pair
    return Prefix(network, length)


def _flatten_int_rows(rows: list[tuple[int, ...]]) -> tuple[array, array]:
    """Variable-length int tuples as ``(lengths, flat values)`` columns.

    Columnar flattening is the difference between decoding hundreds of
    thousands of tagged varints and two ``frombytes`` calls — it is what
    keeps warm-cache decodes an order of magnitude cheaper than rebuilds.
    """
    lengths = array("q", (len(row) for row in rows))
    flat = array("q")
    for row in rows:
        flat.extend(row)
    return lengths, flat


def _unflatten_int_rows(lengths: array, flat: array) -> list[tuple[int, ...]]:
    """Invert :func:`_flatten_int_rows`."""
    rows: list[tuple[int, ...]] = []
    position = 0
    values = flat.tolist()
    for length in lengths:
        rows.append(tuple(values[position : position + length]))
        position += length
    return rows


class StageCodec:
    """Base class: one pipeline stage's artifact ⇄ bytes translator.

    Attributes:
        stage: the pipeline stage name this codec serves.
    """

    stage: str = ""

    @property
    def version(self) -> int:
        """The codec's format version (from :data:`CODEC_VERSIONS`)."""
        return CODEC_VERSIONS[self.stage]

    def encode(self, artifact: object) -> bytes:
        """Serialize one artifact into deterministic bytes."""
        return pack(self.lower(artifact))

    def decode(self, data: bytes) -> object:
        """Rebuild one artifact from its bytes."""
        return self.raise_(unpack(data))

    def lower(self, artifact: object) -> object:
        """Lower one artifact to a primitive tree (codec-specific)."""
        raise NotImplementedError

    def raise_(self, tree: object) -> object:
        """Raise a primitive tree back into the artifact (codec-specific)."""
        raise NotImplementedError


class TopologyCodec(StageCodec):
    """Codec of the *topology* stage: the graph and the prefix ownership.

    The graph adjacency is dumped in exact iteration order
    (:meth:`~repro.topology.graph.AnnotatedASGraph.adjacency_rows`) so the
    decoded graph iterates identically to the generated one, and
    ``originated`` keeps its insertion order; tiers are recomputed from the
    decoded graph (a deterministic function of it).
    """

    stage = "topology"

    def lower(self, artifact: SyntheticInternet) -> object:
        """Lower the synthetic Internet (graph rows, prefix ownership)."""
        graph_rows = [
            (asn, tuple((neighbor, _REL_CODE[rel]) for neighbor, rel in row))
            for asn, row in artifact.graph.adjacency_rows()
        ]
        return (
            graph_rows,
            [
                (asn, tuple(_lower_prefix(p) for p in prefixes))
                for asn, prefixes in artifact.originated.items()
            ],
        )

    def raise_(self, tree: object) -> SyntheticInternet:
        """Rebuild the synthetic Internet; tiers are recomputed from the graph."""
        graph_rows, originated = tree
        graph = AnnotatedASGraph.from_adjacency_rows(
            (
                asn,
                tuple(
                    (neighbor, _RELATIONSHIPS[code]) for neighbor, code in row
                ),
            )
            for asn, row in graph_rows
        )
        return SyntheticInternet(
            graph=graph,
            tiers=classify_tiers(graph),
            originated={
                asn: [_raise_prefix(pair) for pair in prefixes]
                for asn, prefixes in originated
            },
        )


class PoliciesCodec(StageCodec):
    """Codec of the *policies* stage: vantage plan + per-AS policies.

    Per-AS dict fields keep their insertion order; frozenset fields are
    sorted (their iteration order is value-determined, not
    insertion-determined, so sorting loses nothing).
    """

    stage = "policies"

    def lower(self, artifact: "PolicyStageArtifact") -> object:
        """Lower the vantage plan and every AS policy."""
        return (
            tuple(artifact.vantage_ases),
            tuple(artifact.looking_glass_ases),
            [
                self._lower_policy(policy)
                for policy in artifact.assignment.policies.values()
            ],
        )

    @staticmethod
    def _lower_policy(policy: ASPolicy) -> tuple:
        """Lower one AS policy, dict orders preserved, sets sorted."""
        scheme = policy.local_pref
        plan = policy.community_plan
        return (
            policy.asn,
            (scheme.customer, scheme.peer, scheme.provider, scheme.sibling),
            list(policy.neighbor_local_pref.items()),
            [
                (_lower_prefix(prefix), pref)
                for prefix, pref in policy.prefix_local_pref.items()
            ],
            [
                (_lower_prefix(prefix), tuple(sorted(providers)))
                for prefix, providers in policy.announce_to_providers.items()
            ],
            [
                (_lower_prefix(prefix), tuple(sorted(providers)))
                for prefix, providers in policy.scoped_to_providers.items()
            ],
            [
                (_lower_prefix(prefix), tuple(sorted(peers)))
                for prefix, peers in policy.withhold_from_peers.items()
            ],
            None
            if policy.export_customer_prefixes_to is None
            else tuple(sorted(policy.export_customer_prefixes_to)),
            None
            if plan is None
            else (
                plan.asn,
                plan.customer_base,
                plan.peer_base,
                plan.provider_base,
                plan.range_size,
            ),
        )

    def raise_(self, tree: object) -> "PolicyStageArtifact":
        """Rebuild the policy stage artifact."""
        from repro.session.stages import PolicyStageArtifact

        vantage, looking_glass, policies = tree
        assignment = PolicyAssignment(
            policies={row[0]: self._raise_policy(row) for row in policies}
        )
        return PolicyStageArtifact(
            vantage_ases=tuple(vantage),
            looking_glass_ases=tuple(looking_glass),
            assignment=assignment,
        )

    @staticmethod
    def _raise_policy(row: tuple) -> ASPolicy:
        """Rebuild one AS policy from its lowered row."""
        (
            asn,
            scheme,
            neighbor_local_pref,
            prefix_local_pref,
            announce_to,
            scoped_to,
            withhold,
            export_to,
            plan,
        ) = row
        customer, peer, provider, sibling = scheme
        return ASPolicy(
            asn=asn,
            local_pref=LocalPrefScheme(
                customer=customer, peer=peer, provider=provider, sibling=sibling
            ),
            neighbor_local_pref=dict(neighbor_local_pref),
            prefix_local_pref={
                _raise_prefix(pair): pref for pair, pref in prefix_local_pref
            },
            announce_to_providers={
                _raise_prefix(pair): frozenset(providers)
                for pair, providers in announce_to
            },
            scoped_to_providers={
                _raise_prefix(pair): frozenset(providers)
                for pair, providers in scoped_to
            },
            withhold_from_peers={
                _raise_prefix(pair): frozenset(peers) for pair, peers in withhold
            },
            export_customer_prefixes_to=(
                None if export_to is None else frozenset(export_to)
            ),
            community_plan=(
                None
                if plan is None
                else CommunityPlan(
                    asn=plan[0],
                    customer_base=plan[1],
                    peer_base=plan[2],
                    provider_base=plan[3],
                    range_size=plan[4],
                )
            ),
        )


class PropagationCodec(StageCodec):
    """Codec of the *propagation* stage: the columnar RIB as it is.

    The RIB's value tables and row columns are written unchanged (prefixes
    as network/length columns, paths and community sets as flattened
    integer rows), so decoding is a handful of ``frombytes`` calls plus one
    ``Prefix`` per distinct prefix.
    """

    stage = "propagation"

    def lower(self, artifact: SimulationResult) -> object:
        """Lower the RIB columns plus the run metadata."""
        rib: RibColumns = artifact.rib
        path_lengths, path_flat = _flatten_int_rows(rib.paths)
        comm_counts, comm_flat = _flatten_int_rows(
            [tuple(value for pair in pairs for value in pair) for pairs in rib.communities]
        )
        return (
            array("q", (prefix.network for prefix in rib.prefixes)),
            array("q", (prefix.length for prefix in rib.prefixes)),
            path_lengths,
            path_flat,
            comm_counts,
            comm_flat,
            tuple(rib.owners),
            rib.owner_offsets,
            rib.entry_prefix,
            rib.entry_offsets,
            rib.entry_best,
            rib.cand_path,
            rib.cand_communities,
            rib.cand_local_pref,
            rib.cand_kind,
            rib.cand_learned_from,
            artifact.message_count,
            tuple(_lower_prefix(p) for p in artifact.truncated_prefixes),
        )

    def raise_(self, tree: object) -> SimulationResult:
        """Rebuild the simulation result: the RIB and the run metadata."""
        (
            networks,
            lengths,
            path_lengths,
            path_flat,
            comm_counts,
            comm_flat,
            owners,
            owner_offsets,
            entry_prefix,
            entry_offsets,
            entry_best,
            cand_path,
            cand_communities,
            cand_local_pref,
            cand_kind,
            cand_learned_from,
            message_count,
            truncated,
        ) = tree
        rib = RibColumns(
            prefixes=[Prefix(network, length) for network, length in zip(networks, lengths)],
            paths=_unflatten_int_rows(path_lengths, path_flat),
            communities=[
                tuple(zip(row[::2], row[1::2]))
                for row in _unflatten_int_rows(comm_counts, comm_flat)
            ],
            owners=tuple(owners),
            owner_offsets=owner_offsets,
            entry_prefix=entry_prefix,
            entry_offsets=entry_offsets,
            entry_best=entry_best,
            cand_path=cand_path,
            cand_communities=cand_communities,
            cand_local_pref=cand_local_pref,
            cand_kind=cand_kind,
            cand_learned_from=cand_learned_from,
        )
        return SimulationResult(
            rib=rib,
            message_count=message_count,
            truncated_prefixes=[_raise_prefix(pair) for pair in truncated],
        )


class IrrCodec(StageCodec):
    """Codec of the *irr* stage: the synthetic RPSL database."""

    stage = "irr"

    def lower(self, artifact: IrrDatabase) -> object:
        """Lower every aut-num object, import/export lines in order."""
        return [
            (
                obj.asn,
                obj.as_name,
                obj.last_updated,
                obj.source,
                [
                    (line.peer_as, line.pref, line.filter_text)
                    for line in obj.imports
                ],
                [(line.peer_as, line.filter_text) for line in obj.exports],
            )
            for obj in artifact.objects.values()
        ]

    def raise_(self, tree: object) -> IrrDatabase:
        """Rebuild the IRR database."""
        database = IrrDatabase()
        for asn, as_name, last_updated, source, imports, exports in tree:
            database.add(
                AutNumObject(
                    asn=asn,
                    as_name=as_name,
                    imports=[
                        PolicyLine(
                            direction="import",
                            peer_as=peer,
                            pref=pref,
                            filter_text=filter_text,
                        )
                        for peer, pref, filter_text in imports
                    ],
                    exports=[
                        PolicyLine(
                            direction="export", peer_as=peer, filter_text=filter_text
                        )
                        for peer, filter_text in exports
                    ],
                    last_updated=last_updated,
                    source=source,
                )
            )
        return database


#: The codec registry, one instance per persistable stage.
_CODECS: dict[str, StageCodec] = {
    codec.stage: codec
    for codec in (
        TopologyCodec(),
        PoliciesCodec(),
        PropagationCodec(),
        IrrCodec(),
    )
}


def codec_for(stage: str) -> StageCodec | None:
    """The codec serving one pipeline stage, or ``None``.

    Args:
        stage: a stage name; the derived stages (``"observation"``,
            ``"analysis"``) and the assembled ``"dataset"`` pseudo-stage
            have no codec and stay memory-only.

    Returns:
        The registered :class:`StageCodec` instance or ``None``.
    """
    return _CODECS.get(stage)
