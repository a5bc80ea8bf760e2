"""Named scenario presets and parameterized scenario families.

A scenario is a named, documented :class:`~repro.session.stages.StudyConfig`
factory.  The built-ins cover the configurations the repo has needed so far:

* ``standard`` — the seed repo's default dataset (what the paper's tables run on).
* ``small`` — the quick configuration used by the test suite and examples.
* ``dense-peering`` — much denser lateral peering, stressing peer-route
  selection and the Table 10 peer-export analyses.
* ``sparse-multihoming`` — few multihomed stubs, suppressing the paper's
  main cause of SA prefixes (a lower-bound scenario for Tables 5-9).
* ``large`` — the full-size synthetic Internet of
  :class:`~repro.topology.generator.GeneratorParameters`' defaults with an
  Oregon-scale collector (56 peers).

A :class:`ScenarioFamily` generalises a preset into an *unbounded* space of
scenarios: a deterministic sampler from an integer seed to a
:class:`~repro.session.stages.StudyConfig`.  The built-in families
(``peering-density``, ``multihoming``, ``hierarchy-depth``,
``community-adoption``, ``collector-size``) live in
:mod:`repro.fuzz.families` and are the substrate of the differential fuzz
harness (``python -m repro fuzz``).  A single sample is addressable
everywhere a preset name is accepted via the ``family@seed`` spelling
(:func:`resolve_scenario`), e.g. ``python -m repro run --scenario
multihoming@7``.

Register new ones with :func:`register_scenario` / :func:`register_family`;
the CLI (``python -m repro scenarios``) lists whatever is registered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.exceptions import ExperimentError
from repro.session.cache import StageCache
from repro.session.stages import ObservationParameters, StudyConfig
from repro.session.study import Study
from repro.simulation.policies import PolicyParameters
from repro.topology.generator import GeneratorParameters


@dataclass(frozen=True)
class Scenario:
    """A named study configuration.

    Attributes:
        name: registry identifier (``"standard"``, ``"small"``, ...).
        description: one-line summary shown by ``python -m repro scenarios``.
        config_factory: builds the scenario's :class:`StudyConfig`.
    """

    name: str
    description: str
    config_factory: Callable[[], StudyConfig]

    def config(self) -> StudyConfig:
        """The scenario's study configuration."""
        return self.config_factory()

    def study(self, *, cache: StageCache | None = None) -> Study:
        """A :class:`Study` of this scenario (sharing the global cache by default)."""
        return Study(self.config(), cache=cache)


_SCENARIOS: dict[str, Scenario] = {}


def register_scenario(
    name: str, description: str, config_factory: Callable[[], StudyConfig]
) -> Scenario:
    """Register a named scenario; raises on duplicates (presets or families)."""
    if name in _SCENARIOS:
        raise ExperimentError(f"duplicate scenario name: {name!r}")
    # Checked against the raw registry (not via family_names()) so the
    # built-in preset registrations below never trigger the family import.
    if name in _FAMILIES:
        raise ExperimentError(
            f"scenario {name!r} collides with a scenario family of that name"
        )
    scenario = Scenario(name=name, description=description, config_factory=config_factory)
    _SCENARIOS[name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name.

    Raises:
        ExperimentError: for unknown names.
    """
    scenario = _SCENARIOS.get(name)
    if scenario is None:
        raise ExperimentError(
            f"unknown scenario {name!r}; known: {sorted(_SCENARIOS)}"
        )
    return scenario


def all_scenarios() -> list[Scenario]:
    """Every registered scenario, ordered by name."""
    return [_SCENARIOS[name] for name in sorted(_SCENARIOS)]


# -- scenario families -------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioFamily:
    """A parameterized, seeded family of scenarios.

    A family is a deterministic sampler ``seed -> StudyConfig``: the same
    ``(family, seed)`` pair always produces the same configuration, in any
    process (samplers must not depend on ``PYTHONHASHSEED`` or global
    state).  That makes every sample reproducible from the two values the
    fuzz harness prints on failure.

    Attributes:
        name: registry identifier (``"peering-density"``, ...).
        description: one-line summary shown by ``python -m repro scenarios``.
        parameter: human-readable description of the knob(s) the family
            varies, e.g. ``"p = lateral peering probability in [0, 0.9]"``.
        sampler: the deterministic ``seed -> StudyConfig`` function.
    """

    name: str
    description: str
    parameter: str
    sampler: Callable[[int], StudyConfig]

    def sample(self, seed: int) -> StudyConfig:
        """The (validated) study configuration sampled at ``seed``."""
        config = self.sampler(seed)
        config.validate()
        return config

    def scenario(self, seed: int) -> Scenario:
        """One sample wrapped as an ad-hoc :class:`Scenario` (``name@seed``)."""
        config = self.sample(seed)
        return Scenario(
            name=f"{self.name}@{seed}",
            description=f"sample of the {self.name!r} family at seed {seed}",
            config_factory=lambda: config,
        )

    def study(self, seed: int, *, cache: StageCache | None = None) -> Study:
        """A :class:`Study` of the sample at ``seed``."""
        return Study(self.sample(seed), cache=cache)


_FAMILIES: dict[str, ScenarioFamily] = {}


def _load_builtin_families() -> None:
    """Import the built-in family definitions (registered on import)."""
    import repro.fuzz.families  # noqa: F401  (imported for its registrations)


def register_family(
    name: str, description: str, parameter: str, sampler: Callable[[int], StudyConfig]
) -> ScenarioFamily:
    """Register a named scenario family; raises on duplicates."""
    if name in _FAMILIES:
        raise ExperimentError(f"duplicate scenario family name: {name!r}")
    if name in _SCENARIOS:
        raise ExperimentError(
            f"scenario family {name!r} collides with a scenario preset of that name"
        )
    family = ScenarioFamily(
        name=name, description=description, parameter=parameter, sampler=sampler
    )
    _FAMILIES[name] = family
    return family


def get_family(name: str) -> ScenarioFamily:
    """Look up a scenario family by name.

    Raises:
        ExperimentError: for unknown names.
    """
    _load_builtin_families()
    family = _FAMILIES.get(name)
    if family is None:
        raise ExperimentError(
            f"unknown scenario family {name!r}; known: {sorted(_FAMILIES)}"
        )
    return family


def all_families() -> list[ScenarioFamily]:
    """Every registered scenario family, ordered by name."""
    _load_builtin_families()
    return [_FAMILIES[name] for name in sorted(_FAMILIES)]


def family_names() -> list[str]:
    """The registered scenario family names, sorted."""
    _load_builtin_families()
    return sorted(_FAMILIES)


def resolve_scenario(spec: str) -> Scenario:
    """A scenario preset by name, or one family sample via ``family@seed``.

    ``resolve_scenario("small")`` is :func:`get_scenario`;
    ``resolve_scenario("multihoming@7")`` samples the ``multihoming`` family
    at seed 7.  Every CLI/bench entry point that accepts ``--scenario``
    resolves through here, so family samples are first-class scenarios.

    Raises:
        ExperimentError: for unknown presets/families or a malformed seed.
    """
    if "@" in spec:
        family_name, _, seed_text = spec.rpartition("@")
        try:
            seed = int(seed_text)
        except ValueError:
            raise ExperimentError(
                f"bad scenario sample {spec!r}: expected 'family@seed' with an "
                f"integer seed, e.g. 'peering-density@7'"
            ) from None
        return get_family(family_name).scenario(seed)
    if spec not in _SCENARIOS and spec in family_names():
        raise ExperimentError(
            f"{spec!r} is a scenario family, not a preset; sample it with an "
            f"explicit seed, e.g. '{spec}@7'"
        )
    return get_scenario(spec)


# -- built-in presets --------------------------------------------------------------

register_scenario(
    "standard",
    "the default study dataset the paper's tables are reproduced on (~330 ASes)",
    StudyConfig,
)

register_scenario(
    "small",
    "quick ~150-AS configuration used by the test suite and examples",
    lambda: StudyConfig(
        topology=GeneratorParameters(
            seed=7, tier1_count=5, tier2_count=10, tier3_count=20, stub_count=110
        ),
        observation=ObservationParameters(
            looking_glass_count=8,
            tier1_looking_glass_count=3,
            collector_vantage_count=12,
        ),
    ),
)

register_scenario(
    "dense-peering",
    "standard topology with much denser lateral peering (stresses peer routes)",
    lambda: StudyConfig(
        topology=replace(
            StudyConfig().topology,
            tier2_peering_probability=0.8,
            tier3_peering_probability=0.3,
            stub_peering_probability=0.05,
        ),
    ),
)

register_scenario(
    "sparse-multihoming",
    "standard topology with rare multihoming (suppresses the main SA-prefix cause)",
    lambda: StudyConfig(
        topology=replace(
            StudyConfig().topology,
            stub_multihoming_probability=0.10,
            max_stub_providers=2,
        ),
        policy=PolicyParameters(selective_announcement_probability=0.25),
    ),
)

register_scenario(
    "large",
    "full-size ~1100-AS Internet with an Oregon-scale collector (56 peers)",
    lambda: StudyConfig(
        topology=GeneratorParameters(),
        observation=ObservationParameters(collector_vantage_count=56),
    ),
)
