"""Golden equivalence suite: AnalysisEngine ≡ legacy repro.core analyzers.

The engine's contract is result identity with the legacy analyzers for the
same dataset.  This suite runs both sides on every registered scenario and
compares the result objects with plain ``==`` — dataclass equality covers
every field, including orderings (list fields) the engine must replicate
bit for bit (atom order, atypical-example order, mismatch order, ...).

Datasets are built through the global stage cache, so they are shared with
the rest of the test session instead of rebuilt per test.
"""

from collections import Counter

import pytest

from repro.analysis.persistence import persistence_series, uptime_distribution
from repro.core.atoms import PolicyAtomAnalyzer
from repro.core.causes import CauseAnalyzer
from repro.core.community import CommunityAnalyzer
from repro.core.consistency import ConsistencyAnalyzer
from repro.core.export_policy import ExportPolicyAnalyzer
from repro.core.import_policy import ImportPolicyAnalyzer
from repro.core.peer_export import PeerExportAnalyzer
from repro.core.verification import Verifier
from repro.exceptions import InferenceError
from repro.experiments.common import persistence_snapshots
from repro.fuzz.oracles import outcome, vantage_subsets
from repro.relationships.gao import GaoInference
from repro.session.scenarios import all_scenarios, get_scenario
from repro.simulation.collector import RouteViewsCollector

SCENARIOS = sorted(scenario.name for scenario in all_scenarios())

_CONTEXTS: dict[str, dict] = {}


def _context(name: str) -> dict:
    """Dataset, engine and shared legacy intermediates for one scenario."""
    ctx = _CONTEXTS.get(name)
    if ctx is None:
        study = get_scenario(name).study()
        dataset = study.dataset()
        graph = dataset.ground_truth_graph
        providers = dataset.internet.providers_under_study(3)
        tables = {p: dataset.result.table_of(p) for p in providers}
        reports = ExportPolicyAnalyzer(graph).analyze_providers(
            tables, known_customer_prefixes=dataset.internet.originated
        )
        glasses = [dataset.looking_glass_of(a) for a in dataset.looking_glass_ases]
        tagging = [
            dataset.looking_glass_of(a)
            for a in dataset.looking_glass_ases
            if dataset.assignment.policies[a].community_plan is not None
        ]
        ctx = _CONTEXTS[name] = {
            "dataset": dataset,
            "engine": study.analysis(),
            "graph": graph,
            "inferred": GaoInference().infer(dataset.collector.all_paths()).graph,
            "providers": providers,
            "tables": tables,
            "reports": reports,
            "glasses": glasses,
            "tagging": tagging,
        }
    return ctx


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_atoms_equivalent(scenario):
    ctx = _context(scenario)
    legacy = PolicyAtomAnalyzer().compute_atoms(ctx["dataset"].collector)
    assert ctx["engine"].atoms() == legacy


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_atom_statistics_equivalent(scenario):
    ctx = _context(scenario)
    atoms = PolicyAtomAnalyzer().compute_atoms(ctx["dataset"].collector)
    sa_prefixes = set().union(*(r.sa_prefix_set() for r in ctx["reports"].values()))
    engine = ctx["engine"]
    assert engine.atom_statistics(
        engine.atoms(), sa_prefixes=sa_prefixes
    ) == PolicyAtomAnalyzer().statistics(atoms, sa_prefixes=sa_prefixes)
    assert engine.atom_statistics() == PolicyAtomAnalyzer().statistics(atoms)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_import_typicality_equivalent(scenario):
    ctx = _context(scenario)
    analyzer = ImportPolicyAnalyzer(ctx["graph"])
    assert ctx["engine"].import_typicality() == analyzer.analyze_many(ctx["glasses"])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_irr_typicality_equivalent(scenario):
    ctx = _context(scenario)
    analyzer = ImportPolicyAnalyzer(ctx["graph"])
    assert ctx["engine"].irr_typicality(min_neighbors=5) == analyzer.analyze_irr(
        ctx["dataset"].irr, min_neighbors=5
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_consistency_equivalent(scenario):
    ctx = _context(scenario)
    analyzer = ConsistencyAnalyzer()
    assert ctx["engine"].consistency_by_as() == analyzer.analyze_many(ctx["glasses"])
    biggest = max(ctx["glasses"], key=lambda g: len(list(g.table.prefixes())))
    assert ctx["engine"].biggest_glass_asn() == biggest.asn
    assert ctx["engine"].consistency_by_router(
        router_count=30
    ) == analyzer.analyze_routers(biggest, router_count=30)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sa_reports_equivalent(scenario):
    ctx = _context(scenario)
    assert ctx["engine"].sa_reports() == ctx["reports"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_all_provider_reports_equivalent(scenario):
    ctx = _context(scenario)
    graph = ctx["graph"]
    dataset = ctx["dataset"]
    legacy = ExportPolicyAnalyzer(graph).analyze_providers(
        {
            asn: dataset.result.table_of(asn)
            for asn in dataset.result.observed_ases
            if graph.customers_of(asn)
        },
        known_customer_prefixes=dataset.internet.originated,
    )
    assert ctx["engine"].all_provider_reports() == legacy


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_customer_sa_equivalent(scenario):
    ctx = _context(scenario)
    legacy = ExportPolicyAnalyzer(ctx["graph"]).analyze_customers(
        ctx["reports"], ctx["tables"]
    )
    assert ctx["engine"].customer_sa_reports() == legacy


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_peer_export_equivalent(scenario):
    ctx = _context(scenario)
    legacy = PeerExportAnalyzer(ctx["graph"]).analyze_many(
        ctx["tables"], originated=ctx["dataset"].internet.originated
    )
    assert ctx["engine"].peer_export_reports() == legacy


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_causes_equivalent(scenario):
    ctx = _context(scenario)
    analyzer = CauseAnalyzer(ctx["graph"])
    engine = ctx["engine"]
    for provider, report in ctx["reports"].items():
        assert engine.homing_breakdown(provider) == analyzer.homing_breakdown(report)
        assert engine.cause_breakdown(provider) == analyzer.cause_breakdown(
            report, ctx["tables"][provider]
        )
        assert engine.case3(provider) == analyzer.case3_analysis(
            report, ctx["dataset"].collector
        )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_vantage_subset_case3_equivalent(scenario):
    """The ablation's Case 3 over fewer vantages equals a re-collected table."""
    ctx = _context(scenario)
    analyzer = CauseAnalyzer(ctx["graph"])
    engine = ctx["engine"]
    subsets = vantage_subsets(ctx["dataset"].vantage_ases)
    assert len({len(vantages) for vantages in subsets}) == 3
    for vantages in subsets:
        collector = RouteViewsCollector(vantages).collect(ctx["dataset"].result)
        for provider, report in ctx["reports"].items():
            assert engine.case3(provider, vantages=vantages) == analyzer.case3_analysis(
                report, collector
            )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_inferred_graph_sa_reports_equivalent(scenario):
    """The relationship ablation's SA reports over the Gao-inferred graph."""
    ctx = _context(scenario)
    inferred = ctx["engine"].inferred()
    assert inferred.index is ctx["engine"].index
    assert ctx["engine"].inferred() is inferred
    analyzer = ExportPolicyAnalyzer(ctx["inferred"])
    originated = ctx["dataset"].internet.originated
    for provider, table in ctx["tables"].items():
        assert outcome(lambda: inferred.sa_report(provider)) == outcome(
            lambda: analyzer.find_sa_prefixes(
                provider, table, known_customer_prefixes=originated
            )
        )
    absent = max(ctx["graph"].ases()) + 1
    with pytest.raises(InferenceError):
        inferred.sa_report(absent)
    with pytest.raises(InferenceError):
        analyzer.find_sa_prefixes(absent, next(iter(ctx["tables"].values())))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_gao_over_index_tuples_equivalent(scenario):
    # The engine feeds Gao each collapsed index tuple once, as it is, with
    # its row multiplicity; the oracle feeds it every collector ASPath.
    ctx = _context(scenario)
    index = ctx["engine"].index
    weighted = GaoInference().infer_weighted(
        (index.collapsed[pid], count) for pid, count in Counter(index.col_path).items()
    )
    expanded = GaoInference().infer(ctx["dataset"].collector.all_paths())
    assert list(weighted.degrees.items()) == list(expanded.degrees.items())
    assert list(weighted.transit_votes.items()) == list(expanded.transit_votes.items())
    assert list(weighted.ambiguous_votes.items()) == list(
        expanded.ambiguous_votes.items()
    )
    assert weighted.graph.adjacency_rows() == expanded.graph.adjacency_rows()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_community_equivalent(scenario):
    ctx = _context(scenario)
    analyzer = CommunityAnalyzer()
    engine = ctx["engine"]
    assert engine.tagging_asns() == [g.asn for g in ctx["tagging"]]
    for glass in ctx["tagging"]:
        assert engine.neighbor_signatures(glass.asn) == analyzer.neighbor_signatures(
            glass
        )
        assert engine.infer_semantics(glass.asn) == analyzer.infer_semantics(glass)
    for glass in ctx["glasses"]:
        assert engine.prefix_counts_by_rank(glass.asn) == analyzer.prefix_counts_by_rank(
            glass
        )
        assert engine.glass_neighbors(glass.asn) == glass.neighbors()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_relationship_verification_equivalent(scenario):
    ctx = _context(scenario)
    legacy = Verifier(ctx["inferred"], CommunityAnalyzer()).verify_relationships(
        ctx["tagging"]
    )
    assert ctx["engine"].verify_relationships() == legacy


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sa_verification_equivalent(scenario):
    ctx = _context(scenario)
    legacy = Verifier(ctx["graph"]).verify_many(
        ctx["reports"], ctx["dataset"].collector
    )
    assert ctx["engine"].verify_sa_prefixes() == legacy


def test_fuzz_oracle_checks_the_same_surface():
    """The fuzz harness's analysis oracle passes on a golden scenario.

    The per-query tests above localise failures; this bridge test keeps the
    shared ``check_analysis_equivalence`` oracle (what ``python -m repro
    fuzz`` runs on sampled scenarios) green on the golden scenarios too, so
    the two suites cannot silently drift apart.
    """
    from repro.fuzz.oracles import check_analysis_equivalence

    ctx = _context("small")
    check_analysis_equivalence(ctx["dataset"], ctx["engine"])


def test_persistence_equivalent():
    """Figs. 6/7 equal per-snapshot reports of fresh legacy analyzers."""
    provider, snapshots, graph = persistence_snapshots(8, 99)
    tables = [snapshot.result.table_of(provider) for snapshot in snapshots]
    reports = [
        ExportPolicyAnalyzer(graph).find_sa_prefixes(provider, table) for table in tables
    ]
    series = persistence_series(list(snapshots), provider, graph)
    assert series.as_rows() == [
        (snapshot.index, len(table), report.sa_prefix_count)
        for snapshot, table, report in zip(snapshots, tables, reports)
    ]
    distribution = uptime_distribution(list(snapshots), provider, graph)
    assert set(distribution.uptime) == set().union(*(table.prefixes() for table in tables))
    for prefix, uptime in distribution.uptime.items():
        assert uptime == sum(prefix in table for table in tables)
        assert distribution.sa_uptime.get(prefix, 0) == sum(
            prefix in report.sa_prefix_set() for report in reports
        )
