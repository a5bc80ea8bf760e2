"""repro.session — the staged, cacheable Study API.

The session layer redesigns dataset assembly around six explicit stages
(``topology -> policies -> propagation -> observation -> irr -> analysis``),
each built lazily and cached by content-addressed keys (a disk tier stores
topology, policies, propagation and irr; observation and analysis are
derived in memory):

* :class:`Study` — the staged pipeline; ``study.with_(policy=...)`` derives
  a variant that reuses every upstream artifact already built.
* :mod:`repro.session.scenarios` — named presets (``standard``, ``small``,
  ``dense-peering``, ``sparse-multihoming``, ``large``) plus seeded
  :class:`ScenarioFamily` samplers (``peering-density``, ``multihoming``,
  ...) whose samples are addressable as ``family@seed`` scenarios.
* :func:`run_suite` — builds the stages the selected experiments declare in
  ``requires`` (and no others), runs the experiments one after another over
  stage-gated views of the study and returns a structured,
  JSON-serializable :class:`SuiteReport`.

Quick tour::

    from repro.session import Study, StageCache, get_scenario, run_suite
    from repro.simulation.policies import PolicyParameters

    study = get_scenario("small").study(cache=StageCache())
    report = run_suite(study, ["table5", "table9"])
    print(report.render())

    sweep = [study.with_(policy=PolicyParameters(seed=s)) for s in range(5)]
    datasets = [variant.dataset() for variant in sweep]   # topology built once
"""

from repro.session.cache import GLOBAL_CACHE, StageCache, StageStats, fingerprint
from repro.session.scenarios import (
    Scenario,
    ScenarioFamily,
    all_families,
    all_scenarios,
    family_names,
    get_family,
    get_scenario,
    register_family,
    register_scenario,
    resolve_scenario,
)
from repro.session.stages import (
    ALL_STAGES,
    IrrParameters,
    ObservationParameters,
    PolicyStageArtifact,
    Stage,
    StageView,
    StudyConfig,
)
from repro.session.study import Study
from repro.session.suite import ExperimentReport, SuiteReport, run_suite
from repro.session.sweep import (
    SweepCase,
    SweepInterrupted,
    SweepReport,
    expand_case_specs,
    run_sweep,
)

__all__ = [
    "ALL_STAGES",
    "ExperimentReport",
    "GLOBAL_CACHE",
    "IrrParameters",
    "ObservationParameters",
    "PolicyStageArtifact",
    "Scenario",
    "ScenarioFamily",
    "Stage",
    "StageCache",
    "StageStats",
    "StageView",
    "Study",
    "StudyConfig",
    "SuiteReport",
    "SweepCase",
    "SweepInterrupted",
    "SweepReport",
    "all_families",
    "all_scenarios",
    "family_names",
    "fingerprint",
    "get_family",
    "get_scenario",
    "register_family",
    "register_scenario",
    "resolve_scenario",
    "run_suite",
    "run_sweep",
    "expand_case_specs",
]
