"""Test-only helpers: fixtures and oracles no production code calls.

Each helper here reads or builds library objects the way the tests need
but the pipeline never does, so it lives with the tests rather than in
``src/``, where ``repro lint``'s DEAD001 would flag it.

Import as ``from helpers import ...`` — ``tests/conftest.py`` puts this
directory on ``sys.path`` for every test module.
"""

from dataclasses import replace

from repro.data.dataset import StudyDataset
from repro.data.rpsl import AutNumObject
from repro.devtools.engine import Rule, all_rules
from repro.devtools.schema import ClassSchema
from repro.experiments.base import Experiment
from repro.experiments.registry import experiment_class
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.session.scenarios import get_scenario
from repro.simulation.policies import LocalPrefScheme, PolicyAssignment
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import AnnotatedASGraph


def small_dataset() -> StudyDataset:
    """The ``small`` scenario's dataset, memoised by the global stage cache."""
    return get_scenario("small").study().dataset()


def import_pref(obj: AutNumObject, neighbor: ASN) -> int | None:
    """The RPSL pref ``obj`` registers for routes imported from ``neighbor``."""
    for line in obj.imports:
        if line.peer_as == neighbor and line.pref is not None:
            return line.pref
    return None


def with_extra_field(schema: ClassSchema, field_name: str) -> ClassSchema:
    """A copy of ``schema`` with one extra declared field (codec drift checks)."""
    return replace(
        schema,
        fields=(*schema.fields, field_name),
        init_params=(*schema.init_params, field_name),
        members=frozenset({*schema.members, field_name}),
    )


def get_experiment(experiment_id: str) -> Experiment:
    """A fresh instance of one registered experiment.

    Raises:
        ExperimentError: for unknown identifiers.
    """
    return experiment_class(experiment_id)()


def get_rule(rule_id: str) -> Rule:
    """The registered lint rule with the given id.

    Raises:
        KeyError: when no rule has that id.
    """
    return {rule.id: rule for rule in all_rules()}[rule_id]


def is_typical(scheme: LocalPrefScheme) -> bool:
    """``True`` when customer > peer > provider (the paper's typical order)."""
    return scheme.customer > scheme.peer > scheme.provider


def all_selectively_announced(assignment: PolicyAssignment) -> set[Prefix]:
    """Every prefix affected by origin-level selective or scoped announcement."""
    prefixes: set[Prefix] = set()
    for affected in assignment.selective_origins.values():
        prefixes.update(affected)
    for affected in assignment.scoped_origins.values():
        prefixes.update(affected)
    return prefixes


def stub_ases(internet: SyntheticInternet) -> list[ASN]:
    """Every stub AS (no customers) of ``internet``, sorted."""
    return sorted(asn for asn in internet.graph.ases() if internet.graph.is_stub(asn))


def is_customer_of(graph: AnnotatedASGraph, asn: ASN, provider: ASN) -> bool:
    """``True`` if ``asn`` is a direct or indirect customer of ``provider``."""
    return provider in graph and asn in graph.customer_cone(provider)
