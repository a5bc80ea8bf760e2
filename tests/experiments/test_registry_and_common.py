"""Tests for the experiment registry and base classes."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import (
    all_experiments,
    experiment_class,
    get_experiment,
    register,
)
from repro.session import ALL_STAGES


class TestExperimentResult:
    def test_render_includes_notes_and_reference(self):
        result = ExperimentResult(
            experiment_id="tableX",
            title="A title",
            paper_reference="Table X, Section Y",
            headers=["a", "b"],
            rows=[[1, 2]],
            notes=["something to remember"],
        )
        rendered = result.render()
        assert "tableX: A title" in rendered
        assert "Table X, Section Y" in rendered
        assert "note: something to remember" in rendered


class TestRegistry:
    def test_register_requires_identifier(self):
        class Nameless(Experiment):
            experiment_id = ""
            title = "nameless"
            paper_reference = "-"

            def run(self, dataset):  # pragma: no cover - never invoked
                return self._result()

        with pytest.raises(ExperimentError):
            register(Nameless)

    def test_register_rejects_duplicates(self):
        class Duplicate(Experiment):
            experiment_id = "table5"
            title = "duplicate"
            paper_reference = "-"

            def run(self, dataset):  # pragma: no cover - never invoked
                return self._result()

        with pytest.raises(ExperimentError):
            register(Duplicate)

    def test_all_experiments_sorted_by_id(self):
        identifiers = [experiment.experiment_id for experiment in all_experiments()]
        assert identifiers == sorted(identifiers)

    def test_registry_stores_classes_not_instances(self):
        cls = experiment_class("table5")
        assert isinstance(cls, type) and issubclass(cls, Experiment)

    def test_get_experiment_instantiates_per_call(self):
        assert get_experiment("table5") is not get_experiment("table5")

    def test_every_experiment_declares_requires(self):
        for experiment in all_experiments():
            assert isinstance(experiment.requires, frozenset)
            assert experiment.requires <= ALL_STAGES

