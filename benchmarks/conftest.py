"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one table or figure of the paper against the
standard scenario's study (every stage built once per session through the
session layer's stage cache), prints the reproduced rows so they can be
read next to the paper, and records the wall-clock cost of the analysis
itself (stage construction is benchmarked separately in
``test_bench_pipeline.py``).

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pathlib

import pytest

from repro.data.dataset import StudyDataset
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import experiment_class
from repro.session import StageView, Study, get_scenario

#: Where each benchmark writes the reproduced table for later inspection.
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def study() -> Study:
    """The standard study, every stage built once per benchmark session."""
    study = get_scenario("standard").study()
    study.analysis()
    return study


@pytest.fixture(scope="session")
def dataset(study) -> StudyDataset:
    """The standard study dataset, built once per benchmark session."""
    return study.dataset()


@pytest.fixture(scope="session")
def run_experiment(study):
    """Return a helper that benchmarks one experiment and prints its table."""

    def runner(benchmark, experiment_id: str) -> ExperimentResult:
        cls = experiment_class(experiment_id)
        experiment = cls()
        view = StageView(study, cls.requires)
        result = benchmark.pedantic(
            experiment.run, args=(view,), rounds=1, iterations=1, warmup_rounds=0
        )
        rendered = result.render()
        print()
        print(rendered)
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / f"{experiment_id}.txt").write_text(rendered + "\n")
        return result

    return runner
