"""Shared helpers of the repro-lint test suite."""

import pathlib

import pytest
from helpers import get_rule

from repro.devtools.engine import LintContext, ModuleUnderLint, lint_module

#: The rule-fixture snippets (one offending + one clean file per family).
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: The project root (two levels above tests/devtools/).
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture()
def lint_fixture():
    """Lint one fixture file with every rule, scopes disabled.

    Returns a callable ``(file name, rule ids or None) -> findings`` so each
    test reads as one line; scope disabling lets fixtures live under tests/
    while still exercising the path-scoped DET family.
    """

    def _lint(name: str, rules: tuple[str, ...] | None = None):
        path = FIXTURES / name
        module = ModuleUnderLint.parse(
            f"tests/devtools/fixtures/{name}", path.read_text()
        )
        context = LintContext(root=REPO_ROOT, src_roots=(REPO_ROOT / "src",))
        selected = [get_rule(rule_id) for rule_id in rules] if rules else None
        return lint_module(module, context, rules=selected, respect_scopes=False)

    return _lint


@pytest.fixture()
def lint_source():
    """Lint an inline source string under a chosen repo-relative path."""

    def _lint(source: str, path: str = "src/repro/storage/fake.py"):
        module = ModuleUnderLint.parse(path, source)
        context = LintContext(root=REPO_ROOT, src_roots=(REPO_ROOT / "src",))
        return lint_module(module, context)

    return _lint
