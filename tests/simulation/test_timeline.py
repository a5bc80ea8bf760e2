"""Tests for the persistence timeline and the Looking Glass views."""

import copy
import random

import pytest
from helpers import selective_origins

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
        def export_maps():
            return {
                asn: (dict(policy.announce_to_providers), dict(policy.scoped_to_providers))
                for asn, policy in assignment.policies.items()
            }

        before = export_maps()
        Timeline(
            tiny_internet,
            assignment,
            observed_ases=tiny_internet.tier1[:1],
            parameters=TimelineParameters(snapshot_count=3, churn_probability=1.0, seed=4),
        ).run()
        assert export_maps() == before

    def test_churn_swaps_selective_and_fully_announcing_origins(
        self, tiny_internet, assignment
    ):
        # With certain disappearance and appearance, one churn step stops
        # every selective origin and starts every other multihomed origin.
        # The selective set is taken before the step, so an origin that
        # stops in it is skipped by the appear step and stays stopped.
        churned = copy.deepcopy(assignment)
        before = set(selective_origins(churned))
        graph = tiny_internet.graph
        candidates = {
            asn
            for asn, prefixes in tiny_internet.originated.items()
            if prefixes and len(graph.providers_of(asn)) >= 2
        }
        assert before and candidates - before
        timeline = Timeline(
            tiny_internet,
            churned,
            observed_ases=tiny_internet.tier1[:1],
            parameters=TimelineParameters(
                disappear_probability=1.0, appear_probability=1.0, seed=5
            ),
        )
        changed = timeline._churn(churned, random.Random(5))
        for origin in before:
            policy = churned.policies[origin]
            assert policy.announce_to_providers == {}
            assert policy.scoped_to_providers == {}
        assert set(selective_origins(churned)) == candidates - before
        assert changed == before | candidates

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
