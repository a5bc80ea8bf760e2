"""Stages of the study pipeline and the views experiments consume.

The paper's methodology is a pipeline; the session API makes each step an
explicit stage with its own frozen parameter set, built from the stages it
reads and no others::

    topology -> policies -+-> propagation -+-> analysis
                          +-> irr ---------+
                          +-> observation

* **topology** — generate the synthetic Internet
  (:class:`~repro.topology.generator.GeneratorParameters`).
* **policies** — choose the vantage/Looking Glass plan and draw the per-AS
  policy assignment (:class:`ObservationParameters` select the vantages, the
  Looking Glass list feeds the generator's prefix-based LOCAL_PREF draw).
* **propagation** — run the compiled BGP propagation engine
  (:class:`~repro.simulation.fastpath.FastPropagationEngine`) observed at
  the planned vantage ASes, one prefix after another in the calling
  process; its artifact holds the observed tables as a columnar RIB
  (:class:`~repro.simulation.rib.RibColumns`).
* **observation** — the Table 1 inventory of the vantage and Looking Glass
  ASes, read from the topology and the vantage plan.
* **irr** — synthesise the IRR database (:class:`IrrParameters`).
* **analysis** — compile the collector rows of the RIB into the columnar
  :class:`~repro.analysis.index.MeasurementIndex` and expose the one-pass
  :class:`~repro.analysis.engine.AnalysisEngine` over it and over the RIB
  and IRR it reads in place; it reads the topology, the vantage plan, the
  RIB and the IRR, and has no parameters of its own.

No stage artifact holds another stage's artifact.  With a disk tier,
topology, policies, propagation and irr are stored; the observation and
analysis stages are derived in memory, like the assembled dataset, because
rebuilding them from the stored stages costs no more than decoding them.

:class:`StageView` is the object an :class:`~repro.experiments.base.Experiment`
receives: a view of the :class:`~repro.session.study.Study` that reads each
stage from it on access and only exposes the stages the experiment declared
in ``requires``, so stage dependencies stay honest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import ExperimentError, SimulationError
from repro.simulation.policies import PolicyAssignment, PolicyParameters
from repro.topology.generator import GeneratorParameters

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.engine import AnalysisEngine
    from repro.data.dataset import ASInfo
    from repro.net.asn import ASN
    from repro.session.study import Study


class Stage(enum.Enum):
    """One step of the study pipeline."""

    TOPOLOGY = "topology"
    POLICIES = "policies"
    PROPAGATION = "propagation"
    OBSERVATION = "observation"
    IRR = "irr"
    ANALYSIS = "analysis"

    def __repr__(self) -> str:  # stable across sessions, used in cache keys
        return f"Stage.{self.name}"


#: Every stage, in pipeline order.
ALL_STAGES: frozenset[Stage] = frozenset(Stage)


@dataclass(frozen=True)
class ObservationParameters:
    """Where the synthetic measurements are taken.

    Attributes:
        looking_glass_count: number of Looking Glass ASes (the paper has 15).
        tier1_looking_glass_count: how many of them are Tier-1s (paper: 3).
        collector_vantage_count: number of ASes peering with the collector
            (the paper's Oregon server peers with 56).
        seed: seed for Looking Glass sampling and Table 1 metadata.
    """

    looking_glass_count: int = 15
    tier1_looking_glass_count: int = 3
    collector_vantage_count: int = 24
    seed: int = 1118

    def validate(self) -> None:
        """Raise :class:`SimulationError` on inconsistent settings."""
        if self.tier1_looking_glass_count > self.looking_glass_count:
            raise SimulationError(
                "tier1_looking_glass_count cannot exceed looking_glass_count"
            )
        if self.collector_vantage_count < 1:
            raise SimulationError("collector_vantage_count must be at least 1")


@dataclass(frozen=True)
class IrrParameters:
    """How the synthetic IRR is populated.

    Attributes:
        registration_probability: fraction of ASes registered in the IRR.
        stale_probability: fraction of registered objects that are stale.
        seed: seed of the registration draw.
    """

    registration_probability: float = 0.7
    stale_probability: float = 0.15
    seed: int = 1118


@dataclass(frozen=True)
class StudyConfig:
    """The full, per-stage configuration of a study.

    Every field is a frozen dataclass, so the config (and any prefix of it)
    is hashable and can content-address the stage cache.
    """

    topology: GeneratorParameters = field(
        default_factory=lambda: GeneratorParameters(
            seed=2002,
            tier1_count=6,
            tier2_count=18,
            tier3_count=45,
            stub_count=260,
        )
    )
    policy: PolicyParameters = field(default_factory=PolicyParameters)
    observation: ObservationParameters = field(default_factory=ObservationParameters)
    irr: IrrParameters = field(default_factory=IrrParameters)

    def validate(self) -> None:
        """Validate every stage's parameters."""
        self.topology.validate()
        self.policy.validate()
        self.observation.validate()


# -- stage artifacts ---------------------------------------------------------------


@dataclass(frozen=True)
class PolicyStageArtifact:
    """Output of the *policies* stage: the vantage plan plus the assignment.

    Attributes:
        vantage_ases: ASes peering with the RouteViews-style collector.
        looking_glass_ases: ASes exposing a Looking Glass.
        assignment: the per-AS policies (the ground truth itself).
    """

    vantage_ases: tuple["ASN", ...]
    looking_glass_ases: tuple["ASN", ...]
    assignment: PolicyAssignment

    @property
    def observed_ases(self) -> list["ASN"]:
        """Every AS whose routing table the propagation must record."""
        return sorted(set(self.vantage_ases) | set(self.looking_glass_ases))


# -- the experiment-facing view ----------------------------------------------------


class StageView:
    """A stage-gated view of a :class:`~repro.session.study.Study`.

    The view exposes the attributes experiments read (``analysis``,
    ``tier1_ases``, ``as_info``, ...); each one reads its stage from the
    study on access, and accessing an attribute of a stage outside
    ``allowed`` raises :class:`~repro.exceptions.ExperimentError`.  The view
    holds no copy: the study's stage cache is the memo, so constructing a
    view builds nothing.  ``run_suite`` builds one view per experiment from
    its declared ``requires``, which keeps the declared stage dependencies
    honest.
    """

    __slots__ = ("_study", "_allowed")

    def __init__(self, study: "Study", allowed: frozenset[Stage] = ALL_STAGES):
        self._study = study
        self._allowed = frozenset(allowed)

    # -- bookkeeping -----------------------------------------------------------

    def _need(self, stage: Stage, attribute: str):
        if stage not in self._allowed:
            raise ExperimentError(
                f"stage {stage.value!r} (attribute {attribute!r}) is not in this "
                f"experiment's declared requires: "
                f"{sorted(s.value for s in self._allowed)}"
            )

    # -- topology --------------------------------------------------------------

    @property
    def ground_truth_graph(self):
        self._need(Stage.TOPOLOGY, "ground_truth_graph")
        return self._study.topology().graph

    @property
    def tier1_ases(self) -> list["ASN"]:
        self._need(Stage.TOPOLOGY, "tier1_ases")
        return self._study.topology().tier1

    # -- policies --------------------------------------------------------------

    @property
    def assignment(self) -> PolicyAssignment:
        self._need(Stage.POLICIES, "assignment")
        return self._study.policies().assignment

    # -- observation -----------------------------------------------------------
    # The vantage and Looking Glass lists are drawn with the policies (the
    # generator needs them), but they describe where the measurements are
    # taken, so they are gated with the observation stage.

    @property
    def vantage_ases(self) -> list["ASN"]:
        self._need(Stage.OBSERVATION, "vantage_ases")
        return list(self._study.policies().vantage_ases)

    @property
    def looking_glass_ases(self) -> list["ASN"]:
        self._need(Stage.OBSERVATION, "looking_glass_ases")
        return list(self._study.policies().looking_glass_ases)

    @property
    def as_info(self) -> dict["ASN", "ASInfo"]:
        self._need(Stage.OBSERVATION, "as_info")
        return self._study.observation()

    # -- analysis --------------------------------------------------------------

    @property
    def analysis(self) -> "AnalysisEngine":
        """The one-pass analyzer engine over the compiled measurement index.

        Read from the study's cached ``ANALYSIS`` stage, so every experiment
        in a suite run shares one index instead of re-walking the raw tables.
        """
        self._need(Stage.ANALYSIS, "analysis")
        return self._study.analysis()
