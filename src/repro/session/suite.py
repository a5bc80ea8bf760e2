"""Experiment runner and the structured suite report.

``run_suite`` executes a set of registered experiments against one
:class:`~repro.session.study.Study`, one after another in the calling
thread.  Each experiment class declares ``requires: frozenset[Stage]``; the
runner builds the union of the selected experiments' declared stages (and
nothing else) before its clock starts, then instantiates each class fresh
(experiments may keep per-run state), hands it a
:class:`~repro.session.stages.StageView` of the study restricted to exactly
those stages, and times the run.  Process-level parallelism lives in
``repro sweep``, where whole studies are independent.

Results come back as a :class:`SuiteReport` ordered by experiment id — the
JSON serialization is deterministic, and byte-identical between runs when
timings are masked (``include_timing=False``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.exceptions import ExperimentError
from repro.session.stages import Stage, StageView

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.experiments.base import ExperimentResult
    from repro.session.study import Study


@dataclass
class ExperimentReport:
    """One experiment's reproduced table plus run metadata.

    Attributes:
        experiment_id: registry identifier ("table5", "fig6", ...).
        title: human-readable title.
        paper_reference: the table/figure and section reproduced.
        headers: column headers.
        rows: the data rows.
        notes: free-form remarks.
        timing: wall-clock seconds the analysis took.
    """

    experiment_id: str
    title: str
    paper_reference: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str]
    timing: float

    @classmethod
    def from_result(cls, result: "ExperimentResult", timing: float) -> "ExperimentReport":
        """Wrap an :class:`ExperimentResult` with its wall-clock cost."""
        return cls(
            experiment_id=result.experiment_id,
            title=result.title,
            paper_reference=result.paper_reference,
            headers=list(result.headers),
            rows=[list(row) for row in result.rows],
            notes=list(result.notes),
            timing=timing,
        )

    def to_dict(self, *, include_timing: bool = True) -> dict:
        """A JSON-ready dict with a stable key order and schema."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "timing": round(self.timing, 6) if include_timing else None,
        }

    def render(self) -> str:
        """The familiar ASCII-table rendering."""
        from repro.experiments.base import ExperimentResult

        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
            headers=list(self.headers),
            rows=[list(row) for row in self.rows],
            notes=list(self.notes),
        ).render()


@dataclass
class SuiteReport:
    """The structured result of one ``run_suite`` call.

    Attributes:
        scenario: scenario name the suite ran against (``None`` for ad-hoc
            configurations).
        experiments: per-experiment reports, ordered by experiment id.
        total_seconds: wall-clock cost of the whole suite (excludes building
            the declared stages, which ``run_suite`` does before its clock
            starts).
    """

    experiments: list[ExperimentReport] = field(default_factory=list)
    scenario: str | None = None
    total_seconds: float = 0.0

    def get(self, experiment_id: str) -> ExperimentReport:
        """The report of one experiment.

        Raises:
            ExperimentError: if the suite did not run that experiment.
        """
        for report in self.experiments:
            if report.experiment_id == experiment_id:
                return report
        raise ExperimentError(
            f"suite has no report for {experiment_id!r}; "
            f"ran: {[r.experiment_id for r in self.experiments]}"
        )

    def to_dict(self, *, include_timing: bool = True) -> dict:
        """A JSON-ready dict; ``include_timing=False`` masks all timings.

        ``workers`` is always 1 (experiments run in one thread); the key
        stays so the report schema matches earlier releases.
        """
        return {
            "scenario": self.scenario,
            "experiments": [
                report.to_dict(include_timing=include_timing)
                for report in self.experiments
            ],
            "workers": 1 if include_timing else None,
            "total_seconds": round(self.total_seconds, 6) if include_timing else None,
        }

    def to_json(self, *, include_timing: bool = True, indent: int | None = 2) -> str:
        """Deterministic JSON; byte-identical across runs when
        ``include_timing=False``."""
        return json.dumps(
            self.to_dict(include_timing=include_timing),
            indent=indent,
            default=str,
        )

    def render(self) -> str:
        """Every experiment's ASCII table, separated by blank lines."""
        return "\n\n".join(report.render() for report in self.experiments)


def run_suite(
    study: "Study",
    ids: Iterable[str] | None = None,
    *,
    scenario: str | None = None,
) -> SuiteReport:
    """Run experiments against a study.

    Args:
        study: the :class:`Study` the experiments read.
        ids: experiment identifiers to run (default: every registered one).
        scenario: optional scenario name recorded in the report.

    Returns:
        A :class:`SuiteReport` ordered by experiment id.
    """
    # Imported lazily: repro.experiments imports repro.session at module
    # scope, so the reverse import must happen at call time.
    from repro.experiments.registry import experiment_class, experiment_ids

    selected = sorted(set(ids)) if ids is not None else experiment_ids()
    classes = {identifier: experiment_class(identifier) for identifier in selected}
    # Build the declared stages up front, in pipeline order, so the timings
    # exclude them; each Stage value names its Study method.
    declared = frozenset().union(*(cls.requires for cls in classes.values()))
    for stage in Stage:
        if stage in declared:
            getattr(study, stage.value)()

    started = time.perf_counter()
    reports = []
    for identifier in selected:
        cls = classes[identifier]
        experiment = cls()
        view = StageView(study, cls.requires)
        start = time.perf_counter()
        result = experiment.run(view)
        reports.append(ExperimentReport.from_result(result, time.perf_counter() - start))
    total = time.perf_counter() - started
    return SuiteReport(experiments=reports, scenario=scenario, total_seconds=total)
