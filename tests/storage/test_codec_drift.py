"""A field added to a serialized dataclass must trip the CODEC cross-check.

These tests clone real schemas (``RibColumns``, ``ASPolicy``) with one extra
field and re-run the static cross-check over the *unchanged* codec module:
the CODEC002 rule must flag exactly the invented field.  That proves the
lint rule would catch the classic drift — extending a dataclass without
teaching its codec — before any runtime round-trip could lose data.
"""

import ast
import pathlib

import pytest
from helpers import with_extra_field

from repro.devtools.engine import LintContext, ModuleUnderLint
from repro.devtools.rules_codec import crosscheck
from repro.devtools.schema import collect_schemas

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CODECS_PATH = "src/repro/storage/codecs.py"


@pytest.fixture(scope="module")
def codec_module():
    return ModuleUnderLint.parse(
        CODECS_PATH, (REPO_ROOT / CODECS_PATH).read_text()
    )


@pytest.fixture(scope="module")
def context():
    return LintContext(root=REPO_ROOT, src_roots=(REPO_ROOT / "src",))


def _real_schema(relative: str, module_name: str, class_name: str):
    tree = ast.parse((REPO_ROOT / relative).read_text())
    return collect_schemas(tree, module_name)[class_name]


@pytest.mark.parametrize(
    ("relative", "module_name", "class_name"),
    [
        pytest.param(
            "src/repro/simulation/rib.py",
            "repro.simulation.rib",
            "RibColumns",
            id="RibColumns",
        ),
        ("src/repro/simulation/policies.py", "repro.simulation.policies", "ASPolicy"),
    ],
)
def test_cloned_dataclass_with_extra_field_is_flagged(
    codec_module, context, relative, module_name, class_name
):
    schema = _real_schema(relative, module_name, class_name)
    drifted = with_extra_field(schema, "shadow_metric")
    analysis = crosscheck(
        codec_module, context, schema_overrides={class_name: drifted}
    )
    flagged = [
        finding
        for finding in analysis.findings
        if finding.rule == "CODEC002" and "shadow_metric" in finding.message
    ]
    assert len(flagged) == 1, analysis.findings
    assert f".{class_name}" in flagged[0].message


def test_unmodified_schemas_are_fully_covered(codec_module, context):
    analysis = crosscheck(codec_module, context)
    for finding in analysis.findings:
        assert "RibColumns" not in finding.message
        assert "ASPolicy" not in finding.message
