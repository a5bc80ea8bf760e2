"""Tests for run_suite: determinism, per-run instantiation, stage gating and fencing."""

import json

import pytest
from helpers import get_experiment

from repro.exceptions import ExperimentError
from repro.experiments.base import Experiment
from repro.experiments.registry import _REGISTRY, experiment_class, experiment_ids
from repro.session import Stage, StageCache, get_scenario, run_suite

#: Cheap experiments covering four distinct stage signatures.
CHEAP_IDS = ["fig9", "table1", "table2", "table5", "table9"]


@pytest.fixture(scope="module")
def study():
    return get_scenario("small").study()


class TestRunSuite:
    def test_runs_selected_experiments_in_id_order(self, study):
        report = run_suite(study, ["table5", "table1"])
        assert [r.experiment_id for r in report.experiments] == ["table1", "table5"]
        assert all(r.rows for r in report.experiments)
        assert all(r.timing >= 0 for r in report.experiments)

    def test_duplicate_ids_run_once(self, study):
        report = run_suite(study, ["table1", "table1", "table1"])
        assert [r.experiment_id for r in report.experiments] == ["table1"]

    def test_unknown_id_raises(self, study):
        with pytest.raises(ExperimentError):
            run_suite(study, ["table99"])

    def test_get_unknown_report_raises(self, study):
        report = run_suite(study, ["table1"])
        with pytest.raises(ExperimentError):
            report.get("table5")

    def test_json_is_parseable_and_schema_stable(self, study):
        report = run_suite(study, ["table1"], scenario="small")
        data = json.loads(report.to_json())
        assert data["scenario"] == "small"
        entry = data["experiments"][0]
        assert list(entry) == [
            "experiment_id",
            "title",
            "paper_reference",
            "headers",
            "rows",
            "notes",
            "timing",
        ]

    def test_timing_masked_json_is_deterministic(self, study):
        first = run_suite(study, CHEAP_IDS).to_json(include_timing=False)
        second = run_suite(study, CHEAP_IDS).to_json(include_timing=False)
        assert first == second


class _StatefulExperiment(Experiment):
    """Regression guard: a shared instance would leak `calls` across runs."""

    experiment_id = "stateful-test"
    title = "stateful"
    paper_reference = "-"
    requires = frozenset({Stage.TOPOLOGY})

    def __init__(self):
        self.calls = 0

    def run(self, dataset):
        self.calls += 1
        result = self._result()
        result.headers = ["calls"]
        result.rows = [[self.calls]]
        return result


class TestPerRunInstantiation:
    @pytest.fixture(autouse=True)
    def _register_stateful(self, monkeypatch):
        monkeypatch.setitem(_REGISTRY, "stateful-test", _StatefulExperiment)

    def test_get_experiment_returns_fresh_instances(self):
        assert get_experiment("stateful-test") is not get_experiment("stateful-test")

    def test_state_does_not_leak_across_suite_runs(self, study):
        first = run_suite(study, ["stateful-test"])
        second = run_suite(study, ["stateful-test"])
        assert first.get("stateful-test").rows == [[1]]
        assert second.get("stateful-test").rows == [[1]]


class TestRequiresEnforcement:
    # Sufficiency of every registered experiment's declared stages is covered
    # by tests/experiments/test_experiments.py, which runs each one against a
    # view restricted to its requires.

    def test_undeclared_stage_access_fails(self, study, monkeypatch):
        class Greedy(_StatefulExperiment):
            experiment_id = "greedy-test"
            requires = frozenset({Stage.TOPOLOGY})

            def run(self, dataset):
                dataset.as_info  # not declared
                return self._result()

        monkeypatch.setitem(_REGISTRY, "greedy-test", Greedy)
        with pytest.raises(ExperimentError, match="observation"):
            run_suite(study, ["greedy-test"])


#: The cache entries a declared stage and its upstream stages build.  The
#: analysis stage indexes the assembled dataset, so it builds every stage.
_CLOSURE = {
    Stage.TOPOLOGY: {"topology"},
    Stage.POLICIES: {"topology", "policies"},
    Stage.PROPAGATION: {"topology", "policies", "propagation"},
    Stage.OBSERVATION: {"topology", "policies", "observation"},
    Stage.IRR: {"topology", "policies", "irr"},
    Stage.ANALYSIS: {"topology", "policies", "propagation", "irr", "analysis"},
}


class TestStageFence:
    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_builds_only_the_declared_closure(self, experiment_id):
        cache = StageCache()
        run_suite(get_scenario("small").study(cache=cache), [experiment_id])
        built = {stage for stage, stats in cache.stats.items() if stats.misses > 0}
        declared = experiment_class(experiment_id).requires
        assert built == set().union(*(_CLOSURE[stage] for stage in declared))
