"""Golden equivalence suite: fast engine ≡ legacy engine, every scenario.

The fast engine's contract is *semantic identity* with the legacy engine:
same observed tables (candidates, best routes, attributes), same message
counts, same truncated prefixes — for every registered scenario and for the
hand-built figure scenarios.  The fast engine is the only production
propagation path (the session layer, ``Timeline`` and ``Scenario.run`` all
use it), so this suite is the gate that keeps it honest.

The comparison itself lives in :mod:`repro.fuzz.oracles`
(``check_propagation_equivalence``) and is shared with the differential
fuzz harness, so the golden suite and the fuzzer always check the same
surface.
"""

import pytest

from repro.fuzz.oracles import check_propagation_equivalence
from repro.session.cache import StageCache
from repro.session.scenarios import get_scenario, scenario_names
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.propagation import PropagationEngine, SimulationResult
from repro.simulation.scenario import (
    figure1_scenario,
    figure3_scenario,
    figure5_scenario,
    figure8_multihomed_scenario,
    figure8_singlehomed_scenario,
)

#: The hand-built scenarios of the paper's illustrative figures, by name;
#: ``Scenario.run`` propagates them with the fast engine.
FIGURES = {
    build().name: build
    for build in (
        figure1_scenario,
        figure3_scenario,
        figure5_scenario,
        figure8_multihomed_scenario,
        figure8_singlehomed_scenario,
    )
}

_CACHE: dict[str, tuple] = {}


def _scenario_runs(name: str):
    """(internet, assignment, observed ASes, legacy result), built once per session."""
    cached = _CACHE.get(name)
    if cached is None:
        if name in FIGURES:
            figure = FIGURES[name]()
            inputs = (figure.internet, figure.assignment, figure.observed_ases)
        else:
            study = get_scenario(name).study(cache=StageCache())
            plan = study.policies()
            inputs = (study.topology(), plan.assignment, plan.observed_ases)
        internet, assignment, observed = inputs
        legacy = PropagationEngine(internet, assignment, observed_ases=observed).run()
        cached = _CACHE[name] = (*inputs, legacy)
    return cached


def assert_equivalent(legacy: SimulationResult, fast: SimulationResult) -> None:
    # Raises OracleViolation (with the divergence named) on any mismatch.
    check_propagation_equivalence(legacy, fast)


@pytest.mark.parametrize("scenario", sorted(scenario_names()) + sorted(FIGURES))
def test_fast_engine_matches_legacy(scenario: str) -> None:
    internet, assignment, observed, legacy = _scenario_runs(scenario)
    fast = FastPropagationEngine(internet, assignment, observed_ases=observed).run()
    assert_equivalent(legacy, fast)


def test_session_layer_engines_agree() -> None:
    """The Study propagation stage builds the legacy engine's artifact."""
    legacy = _scenario_runs("small")[-1]
    study = get_scenario("small").study(cache=StageCache())
    assert_equivalent(legacy, study.propagation())
