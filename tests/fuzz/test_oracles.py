"""Oracle tests: a shared positive case plus deliberately injected defects.

The negative tests are the harness's own regression suite: each one forges
an artifact that violates a paper invariant and asserts the matching oracle
actually catches it — a fuzz harness whose oracles cannot fail would
silently pass on anything.
"""

import pytest

from repro.bgp.rib import LocRib
from repro.bgp.route import Route
from repro.core.atoms import PolicyAtom
from repro.fuzz import ORACLES, OracleViolation, build_context
from repro.fuzz.oracles import (
    check_atom_refinement,
    check_valley_free,
    valley_violations,
)
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.simulation.fastpath import FastPropagationEngine


@pytest.fixture(scope="module")
def context():
    """One real sampled case every oracle is exercised against."""
    return build_context("multihoming", 1)


def test_every_oracle_passes_on_a_real_sample(context):
    for name, oracle in ORACLES:
        oracle(context)  # raises OracleViolation on failure


class _TamperedResult:
    """A propagation result with one observed table swapped out."""

    def __init__(self, base, asn, table):
        self._base = base
        self._asn = asn
        self._table = table

    @property
    def observed_ases(self):
        return self._base.observed_ases

    def table_of(self, asn):
        if asn == self._asn:
            return self._table
        return self._base.table_of(asn)


def _forged_table(context, as_path):
    """A one-route table at a Tier-1 holding a route with the given path."""
    victim = context.dataset.internet.tier1[0]
    table = LocRib(owner=victim)
    table.add_route(
        Route(prefix=Prefix.parse("203.0.113.0/24"), as_path=ASPath(as_path))
    )
    return victim, table


def _valley_path(context):
    """A down-then-up path ``[customer, customer's other provider]``."""
    graph = context.graph
    victim = context.dataset.internet.tier1[0]
    for customer in graph.customers_of(victim):
        for provider in graph.providers_of(customer):
            if provider != victim:
                return [customer, provider]
    pytest.skip("sample has no multihomed customer under the first Tier-1")


class TestValleyOracle:
    def test_injected_valley_is_caught(self, context):
        victim, table = _forged_table(context, _valley_path(context))
        tampered = _TamperedResult(context.fast_result, victim, table)
        with pytest.raises(OracleViolation, match="valley path") as excinfo:
            check_valley_free(context.graph, tampered)
        assert excinfo.value.oracle == "valley-free"

    def test_injected_loop_is_caught(self, context):
        customer, provider = _valley_path(context)
        victim, table = _forged_table(context, [customer, provider, customer])
        tampered = _TamperedResult(context.fast_result, victim, table)
        with pytest.raises(OracleViolation, match="looping path"):
            check_valley_free(context.graph, tampered)

    def test_valley_violations_lists_the_offending_route(self, context):
        victim, table = _forged_table(context, _valley_path(context))
        tampered = _TamperedResult(context.fast_result, victim, table)
        violations = valley_violations(context.graph, tampered)
        assert violations and f"AS{victim}" in violations[0]

    def test_untampered_result_is_clean(self, context):
        assert valley_violations(context.graph, context.fast_result) == []


class _FakeAtomEngine:
    """An engine stub returning a hand-built atom decomposition."""

    def __init__(self, atoms):
        self._atoms = atoms

    def atoms(self):
        return self._atoms


class TestAtomOracle:
    def test_straddling_atom_is_caught(self, context):
        collector = context.dataset.collector
        # Two prefixes that genuinely differ in some vantage's next hop.
        by_prefix = {}
        for entry in collector.entries:
            first_hop = entry.as_path.next_hop_as if len(entry.as_path) else None
            by_prefix.setdefault(entry.prefix, {})[entry.vantage] = first_hop
        groups = {}
        for prefix, vector in by_prefix.items():
            groups.setdefault(tuple(sorted(vector.items())), []).append(prefix)
        assert len(groups) > 1, "sample too degenerate for this test"
        (first, *_), (second, *_) = list(groups.values())[:2]
        remaining = [p for p in by_prefix if p not in (first, second)]
        forged = [
            PolicyAtom(signature=(), prefixes=[first, second]),
            PolicyAtom(signature=(), prefixes=remaining),
        ]
        with pytest.raises(OracleViolation, match="straddles"):
            check_atom_refinement(_FakeAtomEngine(forged), collector)

    def test_missing_prefix_is_caught(self, context):
        collector = context.dataset.collector
        real_atoms = context.engine.atoms()
        with pytest.raises(OracleViolation, match="not a partition"):
            check_atom_refinement(_FakeAtomEngine(real_atoms[:-1]), collector)


class TestTimelineIncrementalOracle:
    def test_origin_left_out_of_the_reseed_is_caught(self, context, monkeypatch):
        reseed = FastPropagationEngine.reseed
        monkeypatch.setattr(
            FastPropagationEngine,
            "reseed",
            lambda engine, origins: reseed(engine, sorted(origins)[1:]),
        )
        with pytest.raises(OracleViolation, match="compiled topology") as excinfo:
            dict(ORACLES)["timeline-incremental"](context)
        assert excinfo.value.oracle == "timeline-incremental"
