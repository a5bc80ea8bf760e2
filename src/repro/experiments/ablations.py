"""Ablations of the design choices called out in DESIGN.md.

Three cheap ablations run on the standard dataset:

* **relationships** — run the SA-prefix pipeline with Gao-inferred
  relationships instead of ground truth (the paper's Section 4.3 argument
  that inference error barely moves the results).
* **visibility** — classify SA prefixes from best routes only (the paper's
  choice) vs. from all candidate routes (a prefix is SA only if *no*
  customer route exists at all).
* **vantage points** — how the number of collector peers changes the
  fraction of SA prefixes whose Case-3 classification can be identified
  (the paper notes ~90% identifiable from Oregon's peers).
"""

from __future__ import annotations

from repro.core.causes import CauseAnalyzer
from repro.core.export_policy import ExportPolicyAnalyzer
from repro.exceptions import InferenceError
from repro.session.stages import Stage, StageView
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import provider_tables, sa_reports
from repro.experiments.registry import register
from repro.reporting.tables import format_percent
from repro.simulation.collector import CollectorTable, RouteViewsCollector


@register
class AblationExperiment(Experiment):
    """Sensitivity of the SA-prefix findings to the pipeline's design choices."""

    experiment_id = "ablations"
    title = "Ablations: inferred relationships, route visibility, vantage count"
    paper_reference = "DESIGN.md Section 5 (supports paper Sections 4.3 and 5.1.5)"
    requires = frozenset(
        {Stage.TOPOLOGY, Stage.PROPAGATION, Stage.OBSERVATION, Stage.ANALYSIS}
    )

    def run(self, dataset: StageView) -> ExperimentResult:
        result = self._result()
        result.headers = ["ablation", "provider", "variant", "value"]
        self._relationship_ablation(dataset, result)
        self._visibility_ablation(dataset, result)
        self._vantage_ablation(dataset, result)
        return result

    # -- inferred vs ground-truth relationships ----------------------------------

    def _relationship_ablation(self, dataset: StageView, result: ExperimentResult) -> None:
        # The Gao inference is shared with Table 4 through the engine cache.
        inferred_graph = dataset.analysis.inferred_graph()
        inferred_analyzer = ExportPolicyAnalyzer(inferred_graph)
        tables = provider_tables(dataset)
        baseline = sa_reports(dataset)
        skipped = []
        for provider, table in tables.items():
            truth_report = baseline[provider]
            try:
                inferred_report = inferred_analyzer.find_sa_prefixes(provider, table)
            except InferenceError:  # the provider is absent from the inferred graph
                skipped.append(f"AS{provider}")
                continue
            result.rows.append(
                ["relationships", f"AS{provider}", "ground truth",
                 format_percent(truth_report.percent_sa, 1)]
            )
            result.rows.append(
                ["relationships", f"AS{provider}", "Gao-inferred",
                 format_percent(inferred_report.percent_sa, 1)]
            )
        result.notes.append(
            "relationships: the SA percentage should move only slightly when inferred "
            "relationships replace ground truth (paper Section 4.3)."
        )
        if skipped:
            result.notes.append(
                "relationships: skipped (not in the Gao-inferred graph): "
                + ", ".join(skipped)
            )

    # -- best routes vs all routes ---------------------------------------------------

    def _visibility_ablation(self, dataset: StageView, result: ExperimentResult) -> None:
        engine = dataset.analysis
        for provider, report in sa_reports(dataset).items():
            strict_sa = engine.strict_sa_count(provider)
            result.rows.append(
                ["visibility", f"AS{provider}", "best routes (paper)", report.sa_prefix_count]
            )
            result.rows.append(
                ["visibility", f"AS{provider}", "all candidate routes", strict_sa]
            )
        result.notes.append(
            "visibility: with typical LOCAL_PREF a customer route would have been selected "
            "as best, so the two variants should nearly coincide (paper Section 5.1.1)."
        )

    # -- collector vantage count ------------------------------------------------------------

    def _vantage_ablation(self, dataset: StageView, result: ExperimentResult) -> None:
        analyzer = CauseAnalyzer(dataset.ground_truth_graph)
        reports = sa_reports(dataset)
        provider = next(iter(reports))
        report = reports[provider]
        full_vantages = dataset.vantage_ases
        for fraction, label in ((1.0, "all vantages"), (0.5, "half"), (0.25, "quarter")):
            count = max(1, int(len(full_vantages) * fraction))
            collector = self._collector_subset(dataset, full_vantages[:count])
            case3 = analyzer.case3_analysis(report, collector)
            result.rows.append(
                ["vantage points", f"AS{provider}", f"{label} ({count})",
                 format_percent(case3.percent_identified, 0) + " identified"]
            )
        result.notes.append(
            "vantage points: fewer collector peers leave more SA prefixes unclassifiable "
            "(the paper could identify ~90% from Oregon's 56 peers)."
        )

    @staticmethod
    def _collector_subset(dataset: StageView, vantages: list[int]) -> CollectorTable:
        return RouteViewsCollector(vantages).collect(dataset.result)
