"""One experiment per table and figure of the paper's evaluation.

Every experiment is a small class with a ``run(dataset)`` method returning an
:class:`~repro.experiments.base.ExperimentResult` (headers + rows + notes)
that can be rendered as an ASCII table next to the paper's original.  The
registry maps experiment identifiers (``"table2"``, ``"fig6"``, ...) to
experiment instances; ``python -m repro run`` runs them all.
"""

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import all_experiments, register

# Importing the experiment modules populates the registry.
from repro.experiments import (  # noqa: F401  (imported for registration side effect)
    atoms,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
    table11,
    fig2,
    fig6,
    fig7,
    fig9,
    case3,
    ablations,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "register",
]
