"""Session-layer integration of the ANALYSIS stage."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import all_experiments
from repro.session.cache import StageCache
from repro.session.scenarios import get_scenario
from repro.session.stages import (
    ALL_STAGES,
    Stage,
    StageView,
    StudyConfig,
)
from repro.session.study import Study
from repro.session.suite import run_suite
from repro.simulation.collector import RouteViewsCollector
from repro.simulation.rib import RibColumns
from repro.storage.store import DiskStore
from repro.topology.generator import STUDY_PROVIDER_COUNT, GeneratorParameters

#: A deliberately tiny configuration so stage builds stay cheap.
TINY = StudyConfig(
    topology=GeneratorParameters(
        seed=3, tier1_count=3, tier2_count=4, tier3_count=6, stub_count=24
    )
)


@pytest.fixture()
def cache():
    return StageCache()


@pytest.fixture()
def study(cache):
    return Study(TINY, cache=cache)


class TestStageWiring:
    def test_analysis_is_a_stage(self):
        assert Stage.ANALYSIS in ALL_STAGES
        assert Stage.ANALYSIS.value == "analysis"

    def test_analysis_stage_key_depends_on_upstream(self, cache):
        base = Study(TINY, cache=cache)
        reseeded = base.seeded(99)
        assert base.stage_key(Stage.ANALYSIS) != reseeded.stage_key(Stage.ANALYSIS)


class TestEngineCaching:
    def test_study_analysis_is_cached(self, study, cache):
        first = study.analysis()
        second = study.analysis()
        assert first is second
        stats = cache.stats_for(Stage.ANALYSIS.value)
        assert stats.builds == 1
        assert stats.hits == 1


class TestStageViewGating:
    def test_analysis_gated(self, study):
        view = StageView(study, frozenset({Stage.TOPOLOGY}))
        with pytest.raises(ExperimentError):
            _ = view.analysis

    def test_analysis_allowed(self, study):
        view = StageView(study, frozenset({Stage.ANALYSIS}))
        assert view.analysis is study.analysis()


class TestSuiteAmortisation:
    def test_run_suite_builds_the_index_once(self, study, cache):
        report = run_suite(study, ["table2", "table7", "atoms", "case3", "ablations"])
        assert [r.experiment_id for r in report.experiments] == [
            "ablations",
            "atoms",
            "case3",
            "table2",
            "table7",
        ]
        assert cache.stats_for(Stage.ANALYSIS.value).builds == 1

    def test_common_helpers_honour_study_provider_count(self, study):
        # Every way an experiment reaches the engine (the study's stage, a
        # stage view, the inferred-graph sibling) studies the same providers.
        view = StageView(study, frozenset({Stage.ANALYSIS}))
        providers = study.topology().providers_under_study()
        assert len(providers) == STUDY_PROVIDER_COUNT
        assert list(study.analysis().sa_reports()) == providers
        assert list(view.analysis.peer_export_reports()) == providers
        assert view.analysis.inferred().providers_under_study() == providers


class TestOneRouteRepresentation:
    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_cold_experiments_materialise_no_table_view(self, store, tmp_path, monkeypatch):
        # The experiments of a cold `repro run` (every one but the Fig. 6/7
        # timelines) read the RIB columns through the index; none of them
        # may build a LocRib view or a collector table, whether the
        # propagation stage was just computed or decoded from a disk store.
        built = []
        build = RibColumns._build_table
        monkeypatch.setattr(
            RibColumns,
            "_build_table",
            lambda rib, owner: built.append(owner) or build(rib, owner),
        )
        collected = []
        collect = RouteViewsCollector.collect
        monkeypatch.setattr(
            RouteViewsCollector,
            "collect",
            lambda collector, result: collected.append(result) or collect(collector, result),
        )
        ids = [
            e.experiment_id for e in all_experiments() if e.experiment_id not in ("fig6", "fig7")
        ]
        assert len(ids) == 16
        disk = DiskStore(tmp_path) if store == "disk" else None
        runs = 2 if disk is not None else 1
        for _ in range(runs):
            study = get_scenario("small").study(cache=StageCache(disk=disk))
            run_suite(study, ids, scenario="small")
        if disk is not None:
            assert study.cache.stats_for("propagation").disk_hits == 1
        assert built == []
        assert collected == []
