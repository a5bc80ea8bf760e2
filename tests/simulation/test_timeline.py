"""Tests for the persistence timeline and the Looking Glass views."""

import pytest

from repro.exceptions import SimulationError
from repro.fuzz.oracles import check_timeline_incremental
from repro.session.scenarios import get_family
from repro.simulation.collector import LookingGlass
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.policies import PolicyGenerator, PolicyParameters, scoped_community
from repro.simulation.propagation import PropagationEngine
from repro.simulation.timeline import Timeline, TimelineParameters
from repro.topology.generator import GeneratorParameters, InternetGenerator

#: The sampled (family, seed) scenarios of
#: ``tests/analysis/test_persistence_sampled_scenarios.py``.
SAMPLES = (("multihoming", 3), ("peering-density", 5))

HIGH_CHURN = {
    "churn_probability": 0.5,
    "appear_probability": 0.2,
    "disappear_probability": 0.2,
}


@pytest.fixture(scope="module")
def tiny_internet():
    return InternetGenerator(
        GeneratorParameters(seed=13, tier1_count=3, tier2_count=6, tier3_count=10, stub_count=40)
    ).generate()


@pytest.fixture(scope="module")
def assignment(tiny_internet):
    return PolicyGenerator(PolicyParameters(seed=21)).generate(tiny_internet)


@pytest.fixture(scope="module")
def result(tiny_internet, assignment):
    return PropagationEngine(
        tiny_internet, assignment, observed_ases=tiny_internet.tier1
    ).run()


class TestTimeline:
    def test_snapshot_count(self, tiny_internet, assignment):
        timeline = Timeline(
            tiny_internet,
            assignment,
            observed_ases=tiny_internet.tier1[:1],
            parameters=TimelineParameters(snapshot_count=4, seed=2),
        )
        snapshots = timeline.run()
        assert len(snapshots) == 4
        assert [s.index for s in snapshots] == [0, 1, 2, 3]

    def test_first_snapshot_has_no_changes(self, tiny_internet, assignment):
        timeline = Timeline(
            tiny_internet,
            assignment,
            observed_ases=tiny_internet.tier1[:1],
            parameters=TimelineParameters(snapshot_count=2, seed=2),
        )
        snapshots = timeline.run()
        assert snapshots[0].changed_origins == set()

    def test_churn_changes_announcements_over_time(self, tiny_internet, assignment):
        timeline = Timeline(
            tiny_internet,
            assignment,
            observed_ases=tiny_internet.tier1[:1],
            parameters=TimelineParameters(
                snapshot_count=6, churn_probability=0.9, appear_probability=0.2, seed=3
            ),
        )
        snapshots = timeline.run()
        assert any(s.changed_origins for s in snapshots[1:])

    def test_base_assignment_not_mutated(self, tiny_internet, assignment):
        before = {
            origin: set(prefixes)
            for origin, prefixes in assignment.selective_origins.items()
        }
        Timeline(
            tiny_internet,
            assignment,
            observed_ases=tiny_internet.tier1[:1],
            parameters=TimelineParameters(snapshot_count=3, churn_probability=1.0, seed=4),
        ).run()
        after = {
            origin: set(prefixes)
            for origin, prefixes in assignment.selective_origins.items()
        }
        assert before == after

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            TimelineParameters(snapshot_count=0).validate()
        with pytest.raises(SimulationError):
            TimelineParameters(churn_probability=1.5).validate()

    def test_no_truncated_prefixes_under_generated_policies(self, result):
        assert result.truncated_prefixes == []


def _sample(family: str, seed: int):
    config = get_family(family).sample(seed)
    internet = InternetGenerator(config.topology).generate()
    return internet, PolicyGenerator(config.policy).generate(internet)


def _seed_sets(engine) -> set:
    """Every community set the engine's seed plans announce with."""
    return {c for seed in engine.compiled.seeds.values() for _, c in seed.groups}


def _marker(provider) -> frozenset:
    """The community set of a route scoped to ``provider``."""
    community = scoped_community(provider)
    return frozenset({(community.asn, community.value)})


class TestIncrementalTimeline:
    """One engine per timeline, re-seeded per churn step, equals a fresh one."""

    @pytest.mark.parametrize("family,seed", SAMPLES)
    def test_every_snapshot_equals_a_fresh_compile_and_run(self, family, seed):
        internet, assignment = _sample(family, seed)
        # Raises unless, after every churn step, the engine's compiled
        # topology (seeds included) equals a fresh compile_topology and the
        # snapshot's RIB, message count and truncated prefixes equal a
        # fresh run.
        snapshots = check_timeline_incremental(
            internet,
            assignment,
            sorted(internet.graph.ases()),
            TimelineParameters(snapshot_count=6, seed=seed, **HIGH_CHURN),
        )
        assert all(snapshot.changed_origins for snapshot in snapshots[1:])
        assert any(
            before.result.rib != after.result.rib
            for before, after in zip(snapshots, snapshots[1:])
        )

    def test_reseed_with_a_new_scoped_provider_equals_a_fresh_run(self):
        internet, assignment = _sample(*SAMPLES[0])
        observed = sorted(internet.graph.ases())
        engine = FastPropagationEngine(internet, assignment, observed_ases=observed)
        before = engine.run()
        graph = internet.graph
        origin, provider = next(
            (origin, provider)
            for origin in sorted(internet.originated)
            if len(graph.providers_of(origin)) >= 2
            for provider in sorted(graph.providers_of(origin))
            if _marker(provider) not in _seed_sets(engine)
        )
        prefix = internet.prefixes_of(origin)[0]
        assignment.policy_for(origin).scoped_to_providers[prefix] = frozenset({provider})
        engine.reseed([origin])
        assert _marker(provider) in _seed_sets(engine)
        result = engine.run()
        fresh = FastPropagationEngine(internet, assignment, observed_ases=observed)
        assert engine.compiled == fresh.compiled
        expected = fresh.run()
        assert result.rib == expected.rib
        assert result.message_count == expected.message_count
        assert result.truncated_prefixes == expected.truncated_prefixes
        assert result.rib != before.rib


class TestLookingGlass:
    def test_best_routes_and_neighbors(self, tiny_internet, result):
        glass = LookingGlass.from_result(result, tiny_internet.tier1[0])
        assert glass.best_routes()
        assert glass.neighbors()

    def test_routes_for_prefix_best_first(self, tiny_internet, result):
        glass = LookingGlass.from_result(result, tiny_internet.tier1[0])
        best = glass.best_routes()[0]
        routes = glass.table.all_routes(best.prefix)
        assert best in routes
        assert glass.table.best_route(best.prefix) == best
        # The view's recorded best is what the decision process picks.
        assert glass.table.decision.select_best(routes) == best

    def test_routes_for_unknown_prefix_empty(self, tiny_internet, result):
        from repro.net.prefix import Prefix

        glass = LookingGlass.from_result(result, tiny_internet.tier1[0])
        unknown = Prefix.parse("203.0.113.0/24")
        assert glass.table.all_routes(unknown) == []
        assert glass.table.best_route(unknown) is None

    def test_prefix_count_by_neighbor(self, tiny_internet, result):
        glass = LookingGlass.from_result(result, tiny_internet.tier1[0])
        counts = glass.prefix_count_by_neighbor()
        assert counts
        assert all(count > 0 for count in counts.values())
        assert tiny_internet.tier1[0] not in counts

    def test_router_views_mostly_match_as_table(self, tiny_internet, result):
        glass = LookingGlass.from_result(result, tiny_internet.tier1[0])
        views = glass.router_views(router_count=3, per_prefix_override_fraction=0.1, seed=1)
        assert len(views) == 3
        base_prefs = {
            route.prefix: route.local_pref for route in glass.best_routes()
        }
        for view in views:
            same = sum(
                1
                for route in view.best_routes()
                if base_prefs.get(route.prefix) == route.local_pref
            )
            assert same / len(base_prefs) > 0.75

    def test_router_views_validation(self, tiny_internet, result):
        glass = LookingGlass.from_result(result, tiny_internet.tier1[0])
        with pytest.raises(SimulationError):
            glass.router_views(router_count=0)
        with pytest.raises(SimulationError):
            glass.router_views(router_count=2, per_prefix_override_fraction=2.0)
