"""CODEC family: schema resolution plus the drift cross-check."""

import ast
import pathlib

from helpers import with_extra_field

from repro.devtools.engine import LintContext, ModuleUnderLint
from repro.devtools.rules_codec import crosscheck
from repro.devtools.schema import collect_schemas

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _crosscheck_fixture(name: str):
    path = pathlib.Path(__file__).parent / "fixtures" / name
    module = ModuleUnderLint.parse(f"tests/devtools/fixtures/{name}", path.read_text())
    context = LintContext(root=REPO_ROOT, src_roots=(REPO_ROOT / "src",))
    return crosscheck(module, context)


class TestSchemaCollection:
    def test_dataclass_fields_in_declaration_order(self):
        tree = ast.parse(
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "@dataclass\n"
            "class Point:\n"
            "    x: int\n"
            "    y: int = 0\n"
            "    kind: ClassVar[str] = 'point'\n"
            "    def shift(self):\n"
            "        self.moved = True\n"
        )
        schema = collect_schemas(tree, "geo")["Point"]
        assert schema.is_dataclass
        assert schema.fields == ("x", "y")  # ClassVar excluded
        assert schema.init_params == ("x", "y")
        assert {"x", "y", "kind", "shift", "moved"} <= set(schema.members)

    def test_plain_class_self_attributes_and_init_params(self):
        tree = ast.parse(
            "class Index:\n"
            "    def __init__(self, dataset):\n"
            "        self._attach(dataset)\n"
            "    @classmethod\n"
            "    def hollow(cls, dataset):\n"
            "        self = object.__new__(cls)\n"
            "        return self\n"
            "    def _attach(self, dataset):\n"
            "        self.dataset = dataset\n"
            "        self.rows = []\n"
        )
        schema = collect_schemas(tree, "idx")["Index"]
        assert not schema.is_dataclass
        assert schema.fields == ("dataset", "rows")
        assert schema.init_params == ("dataset",)
        assert "hollow" in schema.members

    def test_with_extra_field_clone(self):
        tree = ast.parse(
            "from dataclasses import dataclass\n@dataclass\nclass P:\n    x: int\n"
        )
        schema = with_extra_field(collect_schemas(tree, "m")["P"], "shadow")
        assert schema.fields == ("x", "shadow")
        assert "shadow" in schema.members


class TestFixtures:
    def test_dirty_fixture_unknown_attribute_and_kwarg(self, lint_fixture):
        findings = lint_fixture("codec_dirty.py", rules=("CODEC001",))
        messages = "\n".join(finding.message for finding in findings)
        assert len(findings) == 2
        assert "unknown attribute 'missing'" in messages
        assert "unknown constructor argument 'bogus'" in messages

    def test_dirty_fixture_uncovered_field(self, lint_fixture):
        findings = lint_fixture("codec_dirty.py", rules=("CODEC002",))
        (finding,) = findings
        assert "field 'forgotten'" in finding.message

    def test_clean_fixture_has_no_findings(self, lint_fixture):
        assert lint_fixture("codec_clean.py") == []

    def test_non_codec_module_is_skipped(self, lint_source):
        findings = lint_source(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class P:\n"
            "    x: int\n"
            "p = P(x=1)\n"
            "print(p.nonexistent)\n"
        )
        # No StageCodec subclass in the module: the CODEC family self-gates off.
        assert findings == []


class TestRealCodecs:
    def test_crosscheck_reaches_every_registered_codec(self):
        source_path = REPO_ROOT / "src/repro/storage/codecs.py"
        module = ModuleUnderLint.parse(
            "src/repro/storage/codecs.py", source_path.read_text()
        )
        context = LintContext(root=REPO_ROOT, src_roots=(REPO_ROOT / "src",))
        analysis = crosscheck(module, context)
        assert analysis is not None
        # Every stage's primary artifact class is resolved and touched.
        for class_name in (
            "SyntheticInternet",
            "PolicyStageArtifact",
            "ASPolicy",
            "SimulationResult",
            "RibColumns",
            "IrrDatabase",
        ):
            assert class_name in analysis.registry, class_name
            assert analysis.touched.get(class_name), class_name

    def test_real_codecs_have_only_the_baselined_findings(self):
        source_path = REPO_ROOT / "src/repro/storage/codecs.py"
        module = ModuleUnderLint.parse(
            "src/repro/storage/codecs.py", source_path.read_text()
        )
        context = LintContext(root=REPO_ROOT, src_roots=(REPO_ROOT / "src",))
        analysis = crosscheck(module, context)
        # The baseline is empty: every field of every stored class is
        # lowered field by field.
        assert analysis.findings == []
