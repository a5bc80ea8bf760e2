"""The staged, cacheable Study — the session API's central object.

A :class:`Study` is a lazy pipeline over a :class:`~repro.session.stages.StudyConfig`:
each stage (topology, policies, propagation, observation, irr, analysis) is
built on first use, from the stages it reads and no others, and stored in a
content-addressed :class:`~repro.session.cache.StageCache` keyed by the
stage's parameters plus the keys of the stages it reads.  With a disk tier
attached, the stages that have a codec (topology, policies, propagation,
irr) are also persisted; observation and analysis are derived in memory
from them.  Studies derived with
:meth:`Study.with_` share the cache, so overriding a downstream stage reuses
every upstream artifact already built::

    study = Study(cache=StageCache())
    study.analysis()                                 # builds what it reads, once
    for p in policy_grid:
        study.with_(policy=p).analysis()             # topology is a cache hit

Experiments read the study itself, through a
:class:`~repro.session.stages.StageView`.  :meth:`Study.dataset` assembles
the flat :class:`~repro.data.dataset.StudyDataset`, Looking Glass views
included, from the stage artifacts; no stage reads it, and the
:mod:`repro.core` oracles, ``repro fuzz``, the archive export and the
examples do.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.data.dataset import ASInfo, StudyDataset
from repro.data.rpsl import IrrDatabase
from repro.net.asn import ASN
from repro.session.cache import GLOBAL_CACHE, StageCache, fingerprint
from repro.session.stages import (
    IrrParameters,
    ObservationParameters,
    PolicyStageArtifact,
    Stage,
    StudyConfig,
)
from repro.simulation.collector import LookingGlass
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.simulation.propagation import SimulationResult
from repro.topology.generator import GeneratorParameters, InternetGenerator, SyntheticInternet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.engine import AnalysisEngine

#: Regions used to synthesise the Table 1 style inventory.
_REGIONS = ("NA", "Eu", "Au", "As")
_REGION_WEIGHTS = (0.55, 0.35, 0.05, 0.05)


class Study:
    """A staged, cacheable study of one synthetic Internet.

    Args:
        config: the per-stage configuration (defaults to the standard one).
        cache: the stage cache to build into.  Defaults to the process-wide
            cache so scenario studies and the dataset helpers share
            artifacts; pass a fresh :class:`StageCache` for isolation.
    """

    def __init__(
        self,
        config: StudyConfig | None = None,
        *,
        cache: StageCache | None = None,
    ):
        self.config = config or StudyConfig()
        self.config.validate()
        self.cache = cache if cache is not None else GLOBAL_CACHE
        self._keys: dict[Stage, str] = {}

    # -- derivation ------------------------------------------------------------

    def with_(
        self,
        *,
        topology: GeneratorParameters | None = None,
        policy: PolicyParameters | None = None,
        observation: ObservationParameters | None = None,
        irr: IrrParameters | None = None,
    ) -> "Study":
        """A study with some stages overridden, sharing this study's cache.

        Stages upstream of every override keep their cache keys, so their
        artifacts are reused rather than rebuilt.
        """
        overrides = {
            name: value
            for name, value in (
                ("topology", topology),
                ("policy", policy),
                ("observation", observation),
                ("irr", irr),
            )
            if value is not None
        }
        return Study(replace(self.config, **overrides), cache=self.cache)

    def seeded(self, seed: int) -> "Study":
        """A study whose every stage seed derives deterministically from ``seed``.

        Observation and IRR share one derived seed; report digests depend on
        this derivation.
        """
        config = replace(
            self.config,
            topology=replace(self.config.topology, seed=seed),
            policy=replace(self.config.policy, seed=seed + 1),
            observation=replace(self.config.observation, seed=seed + 2),
            irr=replace(self.config.irr, seed=seed + 2),
        )
        return Study(config, cache=self.cache)

    # -- stage keys ------------------------------------------------------------

    def stage_key(self, stage: Stage) -> str:
        """The content address of one stage under this config.

        Memoised per study: the config is frozen, and :meth:`with_` and
        :meth:`seeded` return new studies, so a key cannot go stale.
        """
        key = self._keys.get(stage)
        if key is None:
            key = self._keys[stage] = self._compute_key(stage)
        return key

    def _compute_key(self, stage: Stage) -> str:
        config = self.config
        if stage is Stage.TOPOLOGY:
            return fingerprint(Stage.TOPOLOGY, config.topology)
        if stage is Stage.POLICIES:
            return fingerprint(
                Stage.POLICIES,
                self.stage_key(Stage.TOPOLOGY),
                config.observation,
                config.policy,
            )
        if stage is Stage.PROPAGATION:
            return fingerprint(Stage.PROPAGATION, self.stage_key(Stage.POLICIES))
        if stage is Stage.OBSERVATION:
            # The inventory reads the topology and the vantage plan; the
            # policies key covers both, and ``config.observation`` too.
            return fingerprint(Stage.OBSERVATION, self.stage_key(Stage.POLICIES))
        if stage is Stage.IRR:
            return fingerprint(Stage.IRR, self.stage_key(Stage.POLICIES), config.irr)
        if stage is Stage.ANALYSIS:
            # The index reads the topology, the plan, the RIB and the IRR;
            # the propagation key covers the first three.
            return fingerprint(
                Stage.ANALYSIS,
                self.stage_key(Stage.PROPAGATION),
                self.stage_key(Stage.IRR),
            )
        raise ValueError(f"unknown stage: {stage!r}")

    def _build(self, stage: Stage, builder) -> object:
        encode = decode = None
        if self.cache.disk is not None:
            # Codecs are only needed (and only imported) when a disk tier is
            # attached; memory-only caches skip the storage layer entirely.
            from repro.storage.codecs import codec_for

            codec = codec_for(stage.value)
            if codec is not None:
                encode, decode = codec.encode, codec.decode
        return self.cache.get_or_build(
            stage.value, self.stage_key(stage), builder, encode=encode, decode=decode
        )

    # -- stages ----------------------------------------------------------------

    def topology(self) -> SyntheticInternet:
        """The synthetic Internet (stage 1)."""
        return self._build(
            Stage.TOPOLOGY, lambda: InternetGenerator(self.config.topology).generate()
        )

    def policies(self) -> PolicyStageArtifact:
        """The vantage plan and the policy assignment (stage 2)."""
        return self._build(Stage.POLICIES, self._build_policies)

    def _build_policies(self) -> PolicyStageArtifact:
        internet = self.topology()
        observation = self.config.observation
        graph = internet.graph
        tier1 = internet.tier1
        rng = random.Random(observation.seed)

        # Pick the Looking Glass ASes: a few Tier-1s plus transit ASes below them.
        non_tier1_transit = sorted(
            asn
            for asn in graph.ases()
            if asn not in set(tier1) and graph.customers_of(asn)
        )
        tier1_lg = tier1[: observation.tier1_looking_glass_count]
        other_lg_count = min(
            observation.looking_glass_count - len(tier1_lg), len(non_tier1_transit)
        )
        other_lg = (
            rng.sample(non_tier1_transit, k=other_lg_count) if other_lg_count else []
        )
        looking_glass_ases = sorted(set(tier1_lg) | set(other_lg))

        # Pick the collector's vantage ASes: every Tier-1 plus large transit ASes.
        vantage_pool = sorted(non_tier1_transit, key=graph.degree, reverse=True)
        extra_vantages = vantage_pool[
            : max(0, observation.collector_vantage_count - len(tier1))
        ]
        vantage_ases = sorted(set(tier1) | set(extra_vantages))

        assignment = PolicyGenerator(self.config.policy).generate(
            internet, looking_glass_ases=looking_glass_ases
        )
        return PolicyStageArtifact(
            vantage_ases=tuple(vantage_ases),
            looking_glass_ases=tuple(looking_glass_ases),
            assignment=assignment,
        )

    def propagation(self) -> SimulationResult:
        """The propagation run observed at the planned vantage ASes (stage 3).

        Executed in-process by the compiled fast engine.
        """

        def build() -> SimulationResult:
            plan = self.policies()
            return FastPropagationEngine(
                self.topology(), plan.assignment, observed_ases=plan.observed_ases
            ).run()

        return self._build(Stage.PROPAGATION, build)

    def observation(self) -> dict[ASN, ASInfo]:
        """The Table 1 inventory of the vantage and Looking Glass ASes (stage 4).

        Derived in memory from the topology and the vantage plan; it reads
        no propagation.
        """
        return self._build(
            Stage.OBSERVATION,
            lambda: self._build_as_info(self.topology(), self.policies()),
        )

    def _build_as_info(
        self, internet: SyntheticInternet, plan: PolicyStageArtifact
    ) -> dict[ASN, ASInfo]:
        rng = random.Random(f"as-info:{self.config.observation.seed}")
        graph = internet.graph
        inventory = sorted(set(plan.vantage_ases) | set(plan.looking_glass_ases))
        lg_set = set(plan.looking_glass_ases)
        vantage_set = set(plan.vantage_ases)
        info = {}
        for asn in inventory:
            location = rng.choices(_REGIONS, weights=_REGION_WEIGHTS, k=1)[0]
            info[asn] = ASInfo(
                asn=asn,
                name=f"AS{asn} Networks",
                degree=graph.degree(asn),
                location=location,
                tier=internet.tiers.tier_of(asn),
                is_looking_glass=asn in lg_set,
                is_vantage=asn in vantage_set,
            )
        return info

    def irr(self) -> IrrDatabase:
        """The synthetic IRR database (stage 5)."""

        def build() -> IrrDatabase:
            parameters = self.config.irr
            return IrrDatabase.from_assignment(
                self.topology(),
                self.policies().assignment,
                registration_probability=parameters.registration_probability,
                stale_probability=parameters.stale_probability,
                seed=parameters.seed,
            )

        return self._build(Stage.IRR, build)

    def analysis(self) -> "AnalysisEngine":
        """The one-pass analyzer engine over the compiled index (stage 6).

        A derived, memory-only stage: the index is compiled from the
        topology, the vantage plan, the propagation stage's RIB columns and
        the IRR, which costs no more than decoding a stored index would.
        The stage cache entry is the engine's one memo, so every experiment
        of a suite shares one index.
        """

        def build() -> "AnalysisEngine":
            from repro.analysis.engine import AnalysisEngine
            from repro.analysis.index import MeasurementIndex

            index = MeasurementIndex(
                self.topology(), self.policies(), self.propagation().rib, self.irr()
            )
            return AnalysisEngine(index)

        return self._build(Stage.ANALYSIS, build)

    # -- assembly --------------------------------------------------------------

    def dataset(self) -> StudyDataset:
        """The flat :class:`StudyDataset` assembled from the stage artifacts.

        The assembled dataset is itself cached, so repeated calls return the
        same object for the same configuration and cache.
        """
        key = fingerprint(
            "dataset", *(self.stage_key(stage) for stage in Stage)
        )
        return self.cache.get_or_build("dataset", key, self._assemble_dataset)

    def _assemble_dataset(self) -> StudyDataset:
        plan = self.policies()
        result = self.propagation()
        return StudyDataset(
            internet=self.topology(),
            assignment=plan.assignment,
            result=result,
            looking_glasses={
                asn: LookingGlass.from_result(result, asn)
                for asn in plan.looking_glass_ases
            },
            irr=self.irr(),
            vantage_ases=list(plan.vantage_ases),
            looking_glass_ases=list(plan.looking_glass_ases),
            as_info=dict(self.observation()),
        )
