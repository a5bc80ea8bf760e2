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
surface.  A second check compares the two engines' columnar RIBs row by
row — the fast engine writes its columns directly, the legacy engine lowers
its ``LocRib`` objects — in candidate order, with the best position and
every route field of the views.
"""

import pytest
from paper_scenarios import (
    figure1_scenario,
    figure3_scenario,
    figure8_multihomed_scenario,
    figure8_singlehomed_scenario,
)

from repro.fuzz.oracles import check_propagation_equivalence
from repro.session.cache import StageCache
from repro.session.scenarios import all_scenarios, get_scenario
from repro.simulation.fastpath import FastPropagationEngine
from repro.simulation.propagation import PropagationEngine, SimulationResult
from repro.simulation.scenario import figure5_scenario

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

#: The registered scenario presets, by name.
SCENARIOS = sorted(scenario.name for scenario in all_scenarios())

_CACHE: dict[str, tuple] = {}
_FAST: dict[str, SimulationResult] = {}


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


def _fast_run(name: str) -> SimulationResult:
    """The fast engine's run of a scenario, built once per session."""
    if name not in _FAST:
        internet, assignment, observed, _ = _scenario_runs(name)
        _FAST[name] = FastPropagationEngine(
            internet, assignment, observed_ases=observed
        ).run()
    return _FAST[name]


def assert_equivalent(legacy: SimulationResult, fast: SimulationResult) -> None:
    # Raises OracleViolation (with the divergence named) on any mismatch.
    check_propagation_equivalence(legacy, fast)


def _rib_rows(result: SimulationResult) -> list[tuple]:
    """Every RIB entry by value: owner, prefix, candidates in order, best."""
    rib = result.rib
    rows = []
    for owner in rib.owners:
        for entry in rib.entries(owner):
            candidates = [
                (
                    rib.paths[rib.cand_path[row]],
                    frozenset(rib.communities[rib.cand_communities[row]]),
                    rib.cand_local_pref[row],
                    rib.cand_kind[row],
                    rib.cand_learned_from[row],
                )
                for row in rib.candidates(entry)
            ]
            rows.append(
                (owner, rib.prefixes[rib.entry_prefix[entry]], candidates, rib.entry_best[entry])
            )
    return rows


def _view_rows(result: SimulationResult) -> dict:
    """Every view entry: prefix, candidate routes in order, best position."""
    return {
        asn: [
            (entry.prefix, entry.routes, entry.routes.index(entry.best))
            for entry in result.table_of(asn).entries()
        ]
        for asn in result.observed_ases
    }


@pytest.mark.parametrize("scenario", SCENARIOS + sorted(FIGURES))
def test_fast_engine_matches_legacy(scenario: str) -> None:
    legacy = _scenario_runs(scenario)[-1]
    assert_equivalent(legacy, _fast_run(scenario))


@pytest.mark.parametrize("scenario", SCENARIOS + sorted(FIGURES))
def test_fast_columns_match_legacy_lowering(scenario: str) -> None:
    legacy = _scenario_runs(scenario)[-1]
    fast = _fast_run(scenario)
    assert fast.rib.owners == legacy.rib.owners
    assert _rib_rows(fast) == _rib_rows(legacy)
    assert _view_rows(fast) == _view_rows(legacy)


def test_session_layer_engines_agree() -> None:
    """The Study propagation stage builds the legacy engine's artifact."""
    legacy = _scenario_runs("small")[-1]
    study = get_scenario("small").study(cache=StageCache())
    assert_equivalent(legacy, study.propagation())
