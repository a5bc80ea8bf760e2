"""Tests for RPSL objects and the synthetic IRR database."""

import pytest
from helpers import import_pref

from repro.data.rpsl import (
    AutNumObject,
    IrrDatabase,
    PolicyLine,
    local_pref_to_rpsl_pref,
    rpsl_pref_to_local_pref,
)
from repro.exceptions import DataFormatError
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.topology.generator import GeneratorParameters, InternetGenerator

PAPER_EXAMPLE = """\
aut-num: AS1
import: from AS2 action pref = 1; accept ANY
"""


class TestPrefMapping:
    def test_pref_is_opposite_to_local_pref(self):
        assert local_pref_to_rpsl_pref(110) < local_pref_to_rpsl_pref(90)

    def test_roundtrip(self):
        for local_pref in (80, 90, 100, 110, 120):
            assert rpsl_pref_to_local_pref(local_pref_to_rpsl_pref(local_pref)) == local_pref


class TestAutNumParsing:
    def test_paper_example(self):
        obj = AutNumObject.parse(PAPER_EXAMPLE)
        assert obj.asn == 1
        assert len(obj.imports) == 1
        line = obj.imports[0]
        assert line.peer_as == 2
        assert line.pref == 1
        assert line.filter_text == "ANY"

    def test_render_parse_roundtrip(self):
        obj = AutNumObject(asn=5511, as_name="FT-BACKBONE", last_updated="20021101")
        obj.imports.append(PolicyLine("import", peer_as=1239, pref=900, filter_text="ANY"))
        obj.imports.append(PolicyLine("import", peer_as=64999, pref=890, filter_text="AS64999"))
        obj.exports.append(PolicyLine("export", peer_as=1239, filter_text="AS5511"))
        parsed = AutNumObject.parse(obj.render())
        assert parsed.asn == 5511
        assert parsed.as_name == "FT-BACKBONE"
        assert import_pref(parsed, 1239) == 900
        assert import_pref(parsed, 64999) == 890
        assert import_pref(parsed, 42) is None
        assert parsed.neighbors() == {1239, 64999}
        assert parsed.last_updated == "20021101"

    def test_import_without_pref(self):
        obj = AutNumObject.parse("aut-num: AS7\nimport: from AS9 accept AS9\n")
        assert obj.imports[0].pref is None

    def test_unknown_attributes_ignored(self):
        text = "aut-num: AS7\ndescr: something\nadmin-c: X\nimport: from AS9 accept ANY\n"
        obj = AutNumObject.parse(text)
        assert obj.asn == 7
        assert len(obj.imports) == 1

    def test_missing_autnum_rejected(self):
        with pytest.raises(DataFormatError):
            AutNumObject.parse("import: from AS9 accept ANY\n")

    def test_attribute_before_autnum_rejected(self):
        with pytest.raises(DataFormatError):
            AutNumObject.parse("as-name: X\naut-num: AS7\n")

    def test_bad_import_rejected(self):
        with pytest.raises(DataFormatError):
            AutNumObject.parse("aut-num: AS7\nimport: gibberish\n")

    def test_bad_autnum_value_rejected(self):
        with pytest.raises(DataFormatError):
            AutNumObject.parse("aut-num: 7\n")


class TestIrrDatabase:
    def test_render_parse_roundtrip(self):
        database = IrrDatabase()
        first = AutNumObject(asn=1)
        first.imports.append(PolicyLine("import", peer_as=2, pref=890, filter_text="ANY"))
        second = AutNumObject(asn=2, last_updated="20010301")
        database.add(first)
        database.add(second)
        restored = IrrDatabase.parse(database.render())
        assert restored.ases() == [1, 2]
        assert import_pref(restored.get(1), 2) == 890

    def test_updated_during_filters_by_year(self):
        database = IrrDatabase()
        database.add(AutNumObject(asn=1, last_updated="20021101"))
        database.add(AutNumObject(asn=2, last_updated="20010301"))
        fresh = database.updated_during("2002")
        assert [obj.asn for obj in fresh] == [1]

    def test_get_missing(self):
        assert IrrDatabase().get(99) is None


class TestFromAssignment:
    @pytest.fixture(scope="class")
    def internet(self):
        return InternetGenerator(
            GeneratorParameters(seed=2, tier1_count=3, tier2_count=6, tier3_count=10, stub_count=40)
        ).generate()

    @pytest.fixture(scope="class")
    def assignment(self, internet):
        return PolicyGenerator(PolicyParameters(seed=8)).generate(internet)

    def test_registration_probability_respected(self, internet, assignment):
        full = IrrDatabase.from_assignment(internet, assignment, registration_probability=1.0)
        assert len(full) == len(internet.graph)
        none = IrrDatabase.from_assignment(internet, assignment, registration_probability=0.0)
        assert len(none) == 0

    def test_registered_objects_cover_neighbors(self, internet, assignment):
        database = IrrDatabase.from_assignment(
            internet, assignment, registration_probability=1.0, stale_probability=0.0
        )
        for asn in internet.graph.ases():
            obj = database.get(asn)
            assert obj is not None
            assert obj.neighbors() == set(internet.graph.neighbors(asn))

    def test_fresh_objects_encode_actual_local_pref(self, internet, assignment):
        database = IrrDatabase.from_assignment(
            internet, assignment, registration_probability=1.0, stale_probability=0.0
        )
        graph = internet.graph
        for asn in graph.ases():
            policy = assignment.policy_for(asn)
            obj = database.get(asn)
            for neighbor in graph.neighbors(asn):
                relationship = graph.relationship(asn, neighbor)
                expected = policy.neighbor_local_pref.get(
                    neighbor, policy.local_pref.value_for(relationship)
                )
                pref = import_pref(obj, neighbor)
                assert rpsl_pref_to_local_pref(pref) == expected

    def test_stale_objects_have_old_dates(self, internet, assignment):
        database = IrrDatabase.from_assignment(
            internet, assignment, registration_probability=1.0, stale_probability=1.0
        )
        assert all(obj.last_updated < "2002" for obj in database)

    def test_deterministic(self, internet, assignment):
        first = IrrDatabase.from_assignment(internet, assignment, seed=3)
        second = IrrDatabase.from_assignment(internet, assignment, seed=3)
        assert first.render() == second.render()
