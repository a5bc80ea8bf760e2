"""Registry of experiments, keyed by experiment identifier.

The registry stores experiment *classes*, not instances: an experiment may
keep per-run state, and a shared instance would leak that state across suite
runs.  ``run_suite`` instantiates a fresh object per use.
"""

from __future__ import annotations

from repro.exceptions import ExperimentError
from repro.experiments.base import Experiment

_REGISTRY: dict[str, type[Experiment]] = {}


def register(experiment_class: type[Experiment]) -> type[Experiment]:
    """Class decorator: register an experiment class by its identifier."""
    identifier = experiment_class.experiment_id
    if not identifier:
        raise ExperimentError(f"{experiment_class.__name__} has no experiment_id")
    if identifier in _REGISTRY:
        raise ExperimentError(f"duplicate experiment id: {identifier}")
    _REGISTRY[identifier] = experiment_class
    return experiment_class


def experiment_class(experiment_id: str) -> type[Experiment]:
    """Look up one experiment class by identifier.

    Raises:
        ExperimentError: for unknown identifiers.
    """
    cls = _REGISTRY.get(experiment_id)
    if cls is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        )
    return cls


def experiment_ids() -> list[str]:
    """Every registered experiment identifier, sorted."""
    return sorted(_REGISTRY)


def all_experiments() -> list[Experiment]:
    """A fresh instance of every registered experiment, ordered by identifier."""
    return [_REGISTRY[key]() for key in sorted(_REGISTRY)]
