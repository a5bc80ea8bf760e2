"""Differential and metamorphic oracles the fuzz harness checks per sample.

Three *differential* oracles pin each fast path to the computation it
replaces on every sampled scenario, extending the fixed golden suites
(``tests/simulation/test_fastpath_equivalence.py`` and
``tests/analysis/test_engine_equivalence.py``) to unbounded scenario
diversity:

* ``propagation-differential`` — the compiled fast engine and the legacy
  message-object engine produce semantically identical observed tables,
  message counts and truncation sets.
* ``analysis-differential`` — the one-pass :class:`~repro.analysis.engine.AnalysisEngine`
  returns objects equal to every corresponding legacy :mod:`repro.core`
  analyzer on the same dataset.
* ``timeline-incremental`` — a high-churn persistence timeline, which
  re-seeds one engine per snapshot, equals a fresh compile and run at
  every snapshot: compiled topology, RIB columns, message count and
  truncated prefixes.

The *metamorphic / ground-truth* oracles assert the paper's invariants
against the generator's ground truth, independent of either implementation:

* ``valley-free`` — every observed candidate route is loop-free and
  valley-free in the ground-truth graph (Gao's export rule).
* ``relationship-inference`` — Gao and SARK inference only annotate true
  adjacencies (no invented edges) and their graded accuracy is in [0, 1].
* ``atom-refinement`` — policy atoms partition the collector's prefixes and
  refine the per-vantage next-hop-AS partition.
* ``sa-partitions`` — customer prefixes split exactly into customer-routed
  and SA; SA causes cover every SA prefix with ``selective`` as the exact
  remainder; Table 8 homing and Table 7 verification outcomes partition
  their sets.
* ``consistency-rates`` — every Fig. 2 consistency rate is a valid
  fraction.
* ``peer-export-monotonicity`` — per-peer direct-receipt counts are
  bounded and the announcing-peer count is monotone in the threshold.

Each oracle raises :class:`OracleViolation`; the harness catches per oracle
so one failing invariant never masks another.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.atoms import PolicyAtomAnalyzer
from repro.core.causes import CauseAnalyzer
from repro.core.community import CommunityAnalyzer
from repro.core.consistency import ConsistencyAnalyzer
from repro.core.export_policy import ExportPolicyAnalyzer
from repro.core.import_policy import ImportPolicyAnalyzer
from repro.core.peer_export import PeerExportAnalyzer
from repro.core.verification import Verifier
from repro.exceptions import InferenceError, ReproError
from repro.relationships.gao import GaoInference
from repro.relationships.sark import RankBasedInference
from repro.relationships.validation import compare_with_ground_truth
from repro.simulation.collector import RouteViewsCollector
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.timeline import Snapshot, Timeline, TimelineParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import AnalysisEngine
    from repro.data.dataset import StudyDataset
    from repro.net.asn import ASN
    from repro.session.stages import StudyConfig
    from repro.simulation.collector import CollectorTable
    from repro.simulation.policies import PolicyAssignment
    from repro.simulation.propagation import SimulationResult
    from repro.topology.generator import SyntheticInternet
    from repro.topology.graph import AnnotatedASGraph


class OracleViolation(ReproError):
    """One fuzz oracle found a divergence or a broken invariant.

    Attributes:
        oracle: the name of the violated oracle.
    """

    def __init__(self, oracle: str, message: str) -> None:
        """Record which oracle failed and why."""
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle


@dataclass
class FuzzContext:
    """Everything the oracles inspect for one sampled scenario.

    Attributes:
        family: the scenario family the sample came from.
        seed: the sample seed (together with ``family``, the reproduction
            key the harness prints on failure).
        config: the sampled study configuration.
        dataset: the assembled dataset (built over ``fast_result``).
        engine: the one-pass analysis engine over the dataset's index.
        legacy_result: the legacy propagation engine's run.
        fast_result: the compiled fast engine's run.
    """

    family: str
    seed: int
    config: "StudyConfig"
    dataset: "StudyDataset"
    engine: "AnalysisEngine"
    legacy_result: "SimulationResult"
    fast_result: "SimulationResult"

    @property
    def graph(self) -> "AnnotatedASGraph":
        """The ground-truth annotated AS graph of the sample."""
        return self.dataset.ground_truth_graph


def _diverged(oracle: str, what: str) -> OracleViolation:
    """A standard divergence violation for a differential oracle."""
    return OracleViolation(oracle, f"{what} differ between the two implementations")


def vantage_subsets(vantages: list["ASN"]) -> list[list["ASN"]]:
    """The ablation's collector subsets: all, half and a quarter of the vantages."""
    return [
        vantages[: max(1, int(len(vantages) * fraction))] for fraction in (1.0, 0.5, 0.25)
    ]


def outcome(query: Callable[[], object]) -> object:
    """The query's result, or the :class:`InferenceError` class if it raises one."""
    try:
        return query()
    except InferenceError:
        return InferenceError


# -- differential: fast engine vs legacy engine -------------------------------------


def _table_snapshot(result: "SimulationResult") -> dict:
    """Order-insensitive semantic content of every observed table."""
    snapshot = {}
    for asn in result.observed_ases:
        table = result.table_of(asn)
        snapshot[asn] = {
            entry.prefix: (Counter(entry.routes), entry.best)
            for entry in table.entries()
        }
    return snapshot


def check_propagation_equivalence(
    legacy: "SimulationResult", fast: "SimulationResult"
) -> None:
    """Assert the fast engine's run is semantically identical to the legacy run.

    Args:
        legacy: the legacy message-object engine's result.
        fast: the compiled fast engine's result.

    Raises:
        OracleViolation: on any divergence (message counts, truncation,
            observed set, or any table's candidate/best routes).
    """
    oracle = "propagation-differential"
    if fast.message_count != legacy.message_count:
        raise OracleViolation(
            oracle,
            f"message counts differ: legacy {legacy.message_count}, "
            f"fast {fast.message_count}",
        )
    if fast.truncated_prefixes != legacy.truncated_prefixes:
        raise _diverged(oracle, "truncated prefix sets")
    if fast.observed_ases != legacy.observed_ases:
        raise _diverged(oracle, "observed AS sets")
    legacy_tables = _table_snapshot(legacy)
    fast_tables = _table_snapshot(fast)
    for asn in legacy.observed_ases:
        if fast_tables[asn] != legacy_tables[asn]:
            raise _diverged(oracle, f"observed tables at AS{asn}")


# -- differential: incremental timeline vs full recomputation ----------------------


class _CheckedTimeline(Timeline):
    """A timeline that compares every snapshot with a full recomputation."""

    def _propagate(
        self, engine: FastPropagationEngine, changed: set["ASN"]
    ) -> "SimulationResult":
        result = super()._propagate(engine, changed)
        fresh = FastPropagationEngine(
            self.internet, engine.assignment, observed_ases=self.observed_ases
        )
        after = f"after re-seeding {len(changed)} churned origins"
        if engine.compiled != fresh.compiled:
            raise OracleViolation(
                "timeline-incremental", f"the compiled topology differs {after}"
            )
        expected = fresh.run()
        for what, got, want in (
            ("message counts", result.message_count, expected.message_count),
            ("truncated prefixes", result.truncated_prefixes, expected.truncated_prefixes),
            ("RIB columns", result.rib, expected.rib),
        ):
            if got != want:
                raise OracleViolation(
                    "timeline-incremental",
                    f"{what} differ from a fresh compile and run {after}",
                )
        return result


def check_timeline_incremental(
    internet: "SyntheticInternet",
    assignment: "PolicyAssignment",
    observed_ases: list["ASN"],
    parameters: TimelineParameters,
) -> list[Snapshot]:
    """Assert every timeline snapshot equals a fresh compile and run.

    The timeline compiles once and re-seeds the origins each churn step
    touched; every snapshot's compiled topology, RIB columns, message count
    and truncated prefixes must equal those of a new engine built on the
    churned assignment.

    Args:
        internet: the synthetic Internet.
        assignment: the base policy assignment (the timeline churns a copy).
        observed_ases: the ASes whose tables are compared.
        parameters: the timeline's snapshot count and churn.

    Returns:
        The snapshots, for callers that check the churn was not vacuous.

    Raises:
        OracleViolation: on the first snapshot that differs.
    """
    return _CheckedTimeline(internet, assignment, observed_ases, parameters).run()


# -- differential: analysis engine vs legacy analyzers ------------------------------


def check_analysis_equivalence(dataset: "StudyDataset", engine: "AnalysisEngine") -> None:
    """Assert the indexed engine equals every legacy analyzer on one dataset.

    Runs the full legacy analyzer pass (atoms and their statistics, Tables
    2/3, Fig. 2, SA reports, Tables 5-10, causes/Case 3, community
    semantics, Table 4/7 verification, and the ablations' vantage-subset
    Case 3 and inferred-graph SA reports) and compares the result objects
    with ``==``.

    Args:
        dataset: the assembled study dataset both sides analyse.
        engine: the dataset's one-pass analysis engine.

    Raises:
        OracleViolation: naming the first diverging query.
    """
    oracle = "analysis-differential"
    graph = dataset.ground_truth_graph
    glasses = [dataset.looking_glass_of(asn) for asn in dataset.looking_glass_ases]
    providers = dataset.internet.providers_under_study(3)
    tables = {provider: dataset.result.table_of(provider) for provider in providers}
    originated = dataset.internet.originated
    export_analyzer = ExportPolicyAnalyzer(graph)
    reports = export_analyzer.analyze_providers(
        tables, known_customer_prefixes=originated
    )
    inferred_graph = GaoInference().infer(dataset.collector.all_paths()).graph
    atoms = PolicyAtomAnalyzer().compute_atoms(dataset.collector)
    sa_prefixes = set().union(*(report.sa_prefix_set() for report in reports.values()))

    checks: list[tuple[str, Callable[[], object], Callable[[], object]]] = [
        ("policy atoms", lambda: atoms, engine.atoms),
        (
            "policy atom statistics",
            lambda: PolicyAtomAnalyzer().statistics(atoms, sa_prefixes=sa_prefixes),
            lambda: engine.atom_statistics(engine.atoms(), sa_prefixes=sa_prefixes),
        ),
        (
            "Table 2 import typicality",
            lambda: ImportPolicyAnalyzer(graph).analyze_many(glasses),
            engine.import_typicality,
        ),
        (
            "Table 3 IRR typicality",
            lambda: ImportPolicyAnalyzer(graph).analyze_irr(dataset.irr, min_neighbors=5),
            lambda: engine.irr_typicality(min_neighbors=5),
        ),
        (
            "Fig. 2(a) consistency",
            lambda: ConsistencyAnalyzer().analyze_many(glasses),
            engine.consistency_by_as,
        ),
        (
            "Fig. 2(b) router consistency",
            lambda: ConsistencyAnalyzer().analyze_routers(
                max(glasses, key=lambda glass: len(list(glass.table.prefixes()))),
                router_count=8,
            ),
            lambda: engine.consistency_by_router(router_count=8),
        ),
        ("Fig. 4 SA reports", lambda: reports, engine.sa_reports),
        (
            "Table 6 customer SA reports",
            lambda: export_analyzer.analyze_customers(reports, tables),
            engine.customer_sa_reports,
        ),
        (
            "Table 10 peer export",
            lambda: PeerExportAnalyzer(graph).analyze_many(tables, originated=originated),
            engine.peer_export_reports,
        ),
        (
            "Table 7 SA verification",
            lambda: Verifier(graph).verify_many(reports, dataset.collector),
            engine.verify_sa_prefixes,
        ),
        (
            "Table 4 relationship verification",
            lambda: Verifier(inferred_graph, CommunityAnalyzer()).verify_relationships(
                [
                    glass
                    for glass in glasses
                    if dataset.assignment.policies[glass.asn].community_plan is not None
                ]
            ),
            engine.verify_relationships,
        ),
    ]
    for name, legacy_side, engine_side in checks:
        if engine_side() != legacy_side():
            raise _diverged(oracle, f"{name} results")

    cause_analyzer = CauseAnalyzer(graph)
    for provider, report in reports.items():
        if engine.homing_breakdown(provider) != cause_analyzer.homing_breakdown(report):
            raise _diverged(oracle, f"Table 8 homing breakdowns for AS{provider}")
        if engine.cause_breakdown(provider) != cause_analyzer.cause_breakdown(
            report, tables[provider]
        ):
            raise _diverged(oracle, f"Table 9 cause breakdowns for AS{provider}")
        if engine.case3(provider) != cause_analyzer.case3_analysis(
            report, dataset.collector
        ):
            raise _diverged(oracle, f"Case 3 results for AS{provider}")

    # The ablations: Case 3 over collector subsets, Fig. 4 over the inferred
    # graph (a provider missing from it must raise on both sides).
    for vantages in vantage_subsets(dataset.vantage_ases):
        collector = RouteViewsCollector(vantages).collect(dataset.result)
        for provider, report in reports.items():
            if engine.case3(provider, vantages=vantages) != cause_analyzer.case3_analysis(
                report, collector
            ):
                raise _diverged(
                    oracle, f"Case 3 results over {len(vantages)} vantages for AS{provider}"
                )
    inferred_analyzer = ExportPolicyAnalyzer(inferred_graph)
    absent = max(graph.ases()) + 1
    for provider, table in [*tables.items(), (absent, next(iter(tables.values())))]:
        legacy = outcome(
            lambda: inferred_analyzer.find_sa_prefixes(
                provider, table, known_customer_prefixes=originated
            )
        )
        if outcome(lambda: engine.inferred().sa_report(provider)) != legacy:
            raise _diverged(oracle, f"inferred-graph SA reports for AS{provider}")


# -- ground truth: valley-free observed routes --------------------------------------


def valley_violations(
    graph: "AnnotatedASGraph", result: "SimulationResult", limit: int = 5
) -> list[str]:
    """Loop or valley violations among the observed candidate routes.

    Args:
        graph: the ground-truth annotated graph.
        result: a propagation result whose observed tables are scanned
            (candidate routes included, not just best routes).
        limit: stop after this many violations.

    Returns:
        Human-readable violation descriptions (empty when all routes are
        loop-free and valley-free).
    """
    violations: list[str] = []
    for asn in result.observed_ases:
        for entry in result.table_of(asn).entries():
            for route in entry.routes:
                if route.is_local:
                    continue
                asns = list(route.as_path.deduplicate())
                if len(asns) != len(set(asns)):
                    violations.append(
                        f"AS{asn} holds looping path {route.as_path} for {entry.prefix}"
                    )
                elif not graph.is_valley_free([asn, *asns]):
                    violations.append(
                        f"AS{asn} holds valley path {route.as_path} for {entry.prefix}"
                    )
                if len(violations) >= limit:
                    return violations
    return violations


def check_valley_free(graph: "AnnotatedASGraph", result: "SimulationResult") -> None:
    """Assert every observed candidate route is loop-free and valley-free.

    Args:
        graph: the ground-truth annotated graph.
        result: the propagation result to scan.

    Raises:
        OracleViolation: listing the first violating routes.
    """
    violations = valley_violations(graph, result)
    if violations:
        raise OracleViolation("valley-free", "; ".join(violations))


# -- ground truth: relationship inference -------------------------------------------


def check_relationship_inference(
    graph: "AnnotatedASGraph", collector: "CollectorTable"
) -> None:
    """Assert Gao/SARK inference stays inside the true adjacency, with sane accuracy.

    Observed AS paths only traverse real edges, so neither algorithm may
    annotate a pair of ASes that are not adjacent in the ground truth, and
    grading the inferred graph against the truth must yield an accuracy in
    [0, 1] with zero extra edges.

    Args:
        graph: the ground-truth annotated graph.
        collector: the collector table whose paths feed the inference.

    Raises:
        OracleViolation: on invented edges or an out-of-range accuracy.
    """
    oracle = "relationship-inference"
    paths = collector.all_paths()
    for label, inference in (("Gao", GaoInference()), ("SARK", RankBasedInference())):
        inferred = inference.infer(paths).graph
        for edge in inferred.edges():
            if graph.relationship(edge.provider, edge.customer) is None:
                raise OracleViolation(
                    oracle,
                    f"{label} inferred a relationship between non-adjacent "
                    f"AS{edge.provider} and AS{edge.customer}",
                )
        accuracy = compare_with_ground_truth(inferred, graph)
        if accuracy.extra_edges:
            raise OracleViolation(
                oracle, f"{label} graded with {accuracy.extra_edges} invented edges"
            )
        if not 0.0 <= accuracy.accuracy <= 1.0:
            raise OracleViolation(
                oracle, f"{label} accuracy {accuracy.accuracy} outside [0, 1]"
            )


# -- ground truth: atoms refine the next-hop partition ------------------------------


def check_atom_refinement(engine: "AnalysisEngine", collector: "CollectorTable") -> None:
    """Assert atoms partition the collector's prefixes and refine next hops.

    Atoms group prefixes by their full per-vantage path vector; grouping by
    the per-vantage *next hop* is coarser, so every atom must sit inside
    exactly one next-hop class — checked against a next-hop vector computed
    independently from the raw collector rows.

    Args:
        engine: the analysis engine whose atoms are checked.
        collector: the raw collector table the vectors are rebuilt from.

    Raises:
        OracleViolation: when atoms overlap, miss prefixes, or straddle two
            next-hop classes.
    """
    oracle = "atom-refinement"
    next_hop_vector: dict = {}
    for entry in collector.entries:
        first_hop = entry.as_path.next_hop_as if len(entry.as_path) else None
        next_hop_vector.setdefault(entry.prefix, {})[entry.vantage] = first_hop

    covered: set = set()
    for atom in engine.atoms():
        members = set(atom.prefixes)
        if len(members) != len(atom.prefixes):
            raise OracleViolation(oracle, "an atom lists a prefix twice")
        if members & covered:
            raise OracleViolation(oracle, "two atoms share a prefix")
        covered |= members
        if not members <= set(next_hop_vector):
            raise OracleViolation(oracle, "an atom contains an unobserved prefix")
        vectors = {
            tuple(sorted(next_hop_vector[prefix].items())) for prefix in members
        }
        if len(vectors) != 1:
            raise OracleViolation(
                oracle,
                "an atom straddles two next-hop classes (atoms must refine the "
                "next-hop-AS partition)",
            )
    if covered != set(next_hop_vector):
        missing = len(set(next_hop_vector) - covered)
        raise OracleViolation(
            oracle, f"atoms miss {missing} collector prefixes (not a partition)"
        )


# -- ground truth: SA-prefix partitions ---------------------------------------------


def check_sa_partitions(engine: "AnalysisEngine") -> None:
    """Assert the SA-prefix pipeline's category counts form real partitions.

    Per studied provider: customer prefixes split exactly into
    customer-routed and SA (Fig. 4); the Table 9 causes cover every SA
    prefix with ``selective`` as the exact remainder of the (possibly
    overlapping) splitting/aggregating classes; Table 8 homing partitions
    the SA origins; and the Table 7 verification outcomes partition the SA
    set.

    Args:
        engine: the analysis engine to query.

    Raises:
        OracleViolation: naming the provider and the broken partition.
    """
    oracle = "sa-partitions"
    for provider, report in engine.sa_reports().items():
        sa_count = report.sa_prefix_count
        if report.customer_route_prefix_count + sa_count != report.customer_prefix_count:
            raise OracleViolation(
                oracle,
                f"AS{provider}: customer-routed + SA != customer prefixes "
                f"({report.customer_route_prefix_count} + {sa_count} != "
                f"{report.customer_prefix_count})",
            )

        breakdown = engine.cause_breakdown(provider)
        splitting = breakdown.splitting_count
        aggregating = breakdown.aggregating_count
        selective = breakdown.selective_count
        for label, value in (
            ("splitting", splitting),
            ("aggregating", aggregating),
            ("selective", selective),
        ):
            if not 0 <= value <= sa_count:
                raise OracleViolation(
                    oracle, f"AS{provider}: {label} count {value} outside [0, {sa_count}]"
                )
        covered = sa_count - selective
        if covered < 0 or max(splitting, aggregating) > covered:
            raise OracleViolation(
                oracle,
                f"AS{provider}: splitting/aggregating exceed the non-selective "
                f"remainder ({splitting}/{aggregating} vs {covered})",
            )
        if covered > splitting + aggregating:
            raise OracleViolation(
                oracle,
                f"AS{provider}: {covered} SA prefixes claimed covered but the "
                f"causes only explain {splitting + aggregating}",
            )

        homing = engine.homing_breakdown(provider)
        origins = report.origins_with_sa_prefixes()
        if homing.multihomed_origins & homing.singlehomed_origins:
            raise OracleViolation(
                oracle, f"AS{provider}: an origin is both multi- and single-homed"
            )
        if homing.multihomed_origins | homing.singlehomed_origins != origins:
            raise OracleViolation(
                oracle, f"AS{provider}: homing breakdown does not cover the SA origins"
            )

        verification = engine.verify_sa_report(report)
        outcomes = (
            verification.verified_count
            + verification.step1_failures
            + verification.step2_failures
        )
        if outcomes != sa_count:
            raise OracleViolation(
                oracle,
                f"AS{provider}: verification outcomes ({outcomes}) do not "
                f"partition the {sa_count} SA prefixes",
            )


# -- ground truth: consistency rates ------------------------------------------------


def check_consistency_rates(engine: "AnalysisEngine") -> None:
    """Assert every Fig. 2 consistency result is a valid fraction.

    Args:
        engine: the analysis engine to query.

    Raises:
        OracleViolation: when any per-AS or per-router result has
            ``consistent_routes`` outside ``[0, total_routes]``.
    """
    oracle = "consistency-rates"
    results = engine.consistency_by_as() + engine.consistency_by_router(router_count=5)
    for result in results:
        if result.total_routes < 0 or not (
            0 <= result.consistent_routes <= result.total_routes
        ):
            raise OracleViolation(
                oracle,
                f"AS{result.asn} router {result.router_id}: "
                f"{result.consistent_routes}/{result.total_routes} is not a "
                f"valid consistency fraction",
            )


# -- ground truth: peer-export monotonicity -----------------------------------------


def check_peer_export_monotonicity(engine: "AnalysisEngine") -> None:
    """Assert Table 10 counts are bounded and monotone in the threshold.

    Per peer, the directly-received count never exceeds the originated
    count; lowering the full-export threshold can only add announcing
    peers, never remove them.

    Args:
        engine: the analysis engine to query.

    Raises:
        OracleViolation: naming the provider/peer that breaks a bound.
    """
    oracle = "peer-export-monotonicity"
    strict = engine.peer_export_reports(full_export_threshold=1.0)
    loose = engine.peer_export_reports(full_export_threshold=0.5)
    for asn, report in strict.items():
        for behaviour in report.peers:
            if not 0 <= behaviour.directly_received <= behaviour.originated_prefixes:
                raise OracleViolation(
                    oracle,
                    f"AS{asn}: peer AS{behaviour.peer} directly received "
                    f"{behaviour.directly_received} of "
                    f"{behaviour.originated_prefixes} prefixes",
                )
        relaxed = loose[asn]
        if {b.peer for b in report.peers} != {b.peer for b in relaxed.peers}:
            raise OracleViolation(
                oracle, f"AS{asn}: the peer set depends on the export threshold"
            )
        if relaxed.announcing_peer_count < report.announcing_peer_count:
            raise OracleViolation(
                oracle,
                f"AS{asn}: lowering the threshold removed announcing peers "
                f"({report.announcing_peer_count} -> {relaxed.announcing_peer_count})",
            )
        if not 0.0 <= report.percent_announcing <= 100.0:
            raise OracleViolation(
                oracle, f"AS{asn}: percent announcing {report.percent_announcing}"
            )


#: Every oracle the harness runs per case, in execution order.
ORACLES: tuple[tuple[str, Callable[[FuzzContext], None]], ...] = (
    (
        "propagation-differential",
        lambda ctx: check_propagation_equivalence(ctx.legacy_result, ctx.fast_result),
    ),
    (
        "analysis-differential",
        lambda ctx: check_analysis_equivalence(ctx.dataset, ctx.engine),
    ),
    (
        "timeline-incremental",
        lambda ctx: check_timeline_incremental(
            ctx.dataset.internet,
            ctx.dataset.assignment,
            ctx.fast_result.observed_ases,
            TimelineParameters(
                snapshot_count=3,
                churn_probability=0.5,
                appear_probability=0.2,
                disappear_probability=0.2,
                seed=ctx.seed,
            ),
        ),
    ),
    ("valley-free", lambda ctx: check_valley_free(ctx.graph, ctx.fast_result)),
    (
        "relationship-inference",
        lambda ctx: check_relationship_inference(ctx.graph, ctx.dataset.collector),
    ),
    (
        "atom-refinement",
        lambda ctx: check_atom_refinement(ctx.engine, ctx.dataset.collector),
    ),
    ("sa-partitions", lambda ctx: check_sa_partitions(ctx.engine)),
    ("consistency-rates", lambda ctx: check_consistency_rates(ctx.engine)),
    (
        "peer-export-monotonicity",
        lambda ctx: check_peer_export_monotonicity(ctx.engine),
    ),
)
