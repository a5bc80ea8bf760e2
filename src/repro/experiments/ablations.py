"""Ablations of the pipeline's design choices (paper Sections 4.3 and 5.1.5).

Three cheap ablations run on the standard dataset (``docs/paper-map.md``
lists them next to the paper sections they support):

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

from repro.exceptions import InferenceError
from repro.session.stages import Stage, StageView
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import register
from repro.reporting.tables import format_percent


@register
class AblationExperiment(Experiment):
    """Sensitivity of the SA-prefix findings to the pipeline's design choices."""

    experiment_id = "ablations"
    title = "Ablations: inferred relationships, route visibility, vantage count"
    paper_reference = "DESIGN.md Section 5 (supports paper Sections 4.3 and 5.1.5)"
    requires = frozenset({Stage.OBSERVATION, Stage.ANALYSIS})

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
        engine = dataset.analysis
        inferred = engine.inferred()
        skipped = []
        for provider, truth_report in engine.sa_reports().items():
            try:
                inferred_report = inferred.sa_report(provider)
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
        for provider, report in engine.sa_reports().items():
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
        engine = dataset.analysis
        provider = next(iter(engine.sa_reports()))
        full_vantages = dataset.vantage_ases
        for fraction, label in ((1.0, "all vantages"), (0.5, "half"), (0.25, "quarter")):
            count = max(1, int(len(full_vantages) * fraction))
            case3 = engine.case3(provider, vantages=full_vantages[:count])
            result.rows.append(
                ["vantage points", f"AS{provider}", f"{label} ({count})",
                 format_percent(case3.percent_identified, 0) + " identified"]
            )
        result.notes.append(
            "vantage points: fewer collector peers leave more SA prefixes unclassifiable "
            "(the paper could identify ~90% from Oregon's 56 peers)."
        )
