"""Persistence paths (Timeline, Figs. 6/7) on sampled non-preset scenarios.

The golden persistence test runs on one fixed small Internet; here the
timeline and the ``analysis.persistence`` functions are exercised on
scenario-family samples — topologies nobody hand-picked — asserting (a) the
production timeline produces the same snapshot series as one driven by the
legacy propagation engine and (b) the persistence functions agree with
per-snapshot :meth:`~repro.core.export_policy.ExportPolicyAnalyzer.find_sa_prefixes`
reports on every one.
"""

from collections import Counter

import pytest

from repro.analysis.persistence import persistence_series, uptime_distribution
from repro.core.export_policy import ExportPolicyAnalyzer
from repro.session.scenarios import get_family
from repro.simulation.policies import PolicyGenerator
from repro.simulation.propagation import PropagationEngine
from repro.simulation.timeline import Timeline, TimelineParameters
from repro.topology.generator import InternetGenerator


class LegacyTimeline(Timeline):
    """The same churn schedule, propagated by the legacy engine (the oracle)."""

    def _propagate(self, engine, changed):
        return PropagationEngine(
            self.internet, engine.assignment, observed_ases=self.observed_ases
        ).run()


#: Two sampled (family, seed) scenarios — deliberately not presets.
SAMPLES = (("multihoming", 3), ("peering-density", 5))

SNAPSHOT_COUNT = 4

_CACHE: dict[tuple[str, int], dict] = {}


def _timeline_case(family: str, seed: int) -> dict:
    """Internet, provider and both timelines' snapshot runs for one sample."""
    case = _CACHE.get((family, seed))
    if case is None:
        config = get_family(family).sample(seed)
        internet = InternetGenerator(config.topology).generate()
        assignment = PolicyGenerator(config.policy).generate(internet)
        provider = max(internet.tier1, key=internet.graph.degree)
        parameters = TimelineParameters(
            snapshot_count=SNAPSHOT_COUNT,
            churn_probability=0.2,
            appear_probability=0.05,
            disappear_probability=0.05,
            seed=seed,
        )
        snapshots = {
            name: timeline(
                internet, assignment, observed_ases=[provider], parameters=parameters
            ).run()
            for name, timeline in (("fast", Timeline), ("legacy", LegacyTimeline))
        }
        case = _CACHE[(family, seed)] = {
            "internet": internet,
            "provider": provider,
            "snapshots": snapshots,
        }
    return case


def _fresh_reports(snapshots, provider, graph):
    """One Fig. 4 report per snapshot, each from a fresh analyzer."""
    return [
        ExportPolicyAnalyzer(graph).find_sa_prefixes(
            provider, snapshot.result.table_of(provider)
        )
        for snapshot in snapshots
    ]


def _snapshot_content(snapshot, provider):
    table = snapshot.result.table_of(provider)
    return {
        entry.prefix: (Counter(entry.routes), entry.best) for entry in table.entries()
    }


@pytest.mark.parametrize("family,seed", SAMPLES)
def test_fast_and_legacy_timelines_agree(family, seed):
    case = _timeline_case(family, seed)
    fast, legacy = case["snapshots"]["fast"], case["snapshots"]["legacy"]
    assert len(fast) == len(legacy) == SNAPSHOT_COUNT
    for fast_snapshot, legacy_snapshot in zip(fast, legacy):
        assert fast_snapshot.index == legacy_snapshot.index
        assert fast_snapshot.changed_origins == legacy_snapshot.changed_origins
        assert _snapshot_content(fast_snapshot, case["provider"]) == _snapshot_content(
            legacy_snapshot, case["provider"]
        )


@pytest.mark.parametrize("family,seed", SAMPLES)
def test_fig6_series_matches_legacy_analyzer(family, seed):
    case = _timeline_case(family, seed)
    graph = case["internet"].graph
    snapshots = case["snapshots"]["fast"]
    provider = case["provider"]
    series = persistence_series(snapshots, provider, graph)
    reports = _fresh_reports(snapshots, provider, graph)
    assert series.sa_prefix_counts == [report.sa_prefix_count for report in reports]
    assert series.all_prefix_counts == [
        len(snapshot.result.table_of(provider)) for snapshot in snapshots
    ]
    assert series.snapshot_indices == list(range(SNAPSHOT_COUNT))


@pytest.mark.parametrize("family,seed", SAMPLES)
def test_fig7_uptime_matches_legacy_analyzer(family, seed):
    case = _timeline_case(family, seed)
    graph = case["internet"].graph
    snapshots = case["snapshots"]["fast"]
    provider = case["provider"]
    distribution = uptime_distribution(snapshots, provider, graph)
    uptime, sa_uptime = Counter(), Counter()
    for snapshot, report in zip(snapshots, _fresh_reports(snapshots, provider, graph)):
        uptime.update(snapshot.result.table_of(provider).prefixes())
        sa_uptime.update(report.sa_prefix_set())
    assert distribution.uptime == dict(uptime)
    assert distribution.sa_uptime == dict(sa_uptime)
    assert distribution.snapshot_count == SNAPSHOT_COUNT
    assert all(1 <= count <= SNAPSHOT_COUNT for count in distribution.uptime.values())
    assert all(
        distribution.sa_uptime[prefix] <= distribution.uptime[prefix]
        for prefix in distribution.sa_uptime
    )


@pytest.mark.parametrize("family,seed", SAMPLES)
def test_snapshot_sharing_core_is_equivalent_to_fresh_analyzers(family, seed):
    """Sharing one memoising analyzer across snapshots changes nothing.

    The persistence functions reuse one analyzer for the whole timeline;
    on every snapshot its SA-prefix set must equal a fresh analyzer's.
    """
    case = _timeline_case(family, seed)
    graph = case["internet"].graph
    snapshots = case["snapshots"]["fast"]
    provider = case["provider"]
    shared = ExportPolicyAnalyzer(graph)
    fresh_reports = _fresh_reports(snapshots, provider, graph)
    for snapshot, fresh in zip(snapshots, fresh_reports):
        table = snapshot.result.table_of(provider)
        assert shared.find_sa_prefixes(provider, table) == fresh
    distribution = uptime_distribution(snapshots, provider, graph)
    assert distribution.ever_sa_prefixes() == set().union(
        *(report.sa_prefix_set() for report in fresh_reports)
    )
