"""Experiment abstractions shared by every table/figure reproduction."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.reporting.tables import ascii_table
from repro.session.stages import ALL_STAGES, Stage, StageView


@dataclass
class ExperimentResult:
    """The reproduced rows of one table or figure.

    Attributes:
        experiment_id: registry identifier ("table5", "fig6", ...).
        title: human-readable title.
        paper_reference: which table/figure and section of the paper this
            reproduces.
        headers: column headers of the reproduced table / series.
        rows: the data rows.
        notes: free-form remarks (e.g. the paper's headline numbers to
            compare against, or caveats about the synthetic substrate).
    """

    experiment_id: str
    title: str
    paper_reference: str
    headers: list[str] = field(default_factory=list)
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Render the result as an ASCII table with notes."""
        parts = [
            f"== {self.experiment_id}: {self.title}",
            f"   (reproduces {self.paper_reference})",
            ascii_table(self.headers, self.rows),
        ]
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


class Experiment(abc.ABC):
    """Base class for one table/figure reproduction.

    Subclasses declare ``requires`` — the pipeline stages their analysis
    reads.  ``run_suite`` hands ``run`` a :class:`StageView` exposing exactly
    those stages (accessing anything else raises), which keeps the declared
    dependencies honest.
    """

    #: Registry identifier, e.g. ``"table5"``.
    experiment_id: str = ""
    #: Human-readable title.
    title: str = ""
    #: The table/figure and section of the paper being reproduced.
    paper_reference: str = ""
    #: The pipeline stages this experiment reads (see :class:`Stage`).
    requires: frozenset[Stage] = ALL_STAGES

    @abc.abstractmethod
    def run(self, dataset: StageView) -> ExperimentResult:
        """Execute the experiment against a stage view of a study."""

    def _result(self) -> ExperimentResult:
        """Create an empty result pre-filled with this experiment's metadata."""
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
        )
