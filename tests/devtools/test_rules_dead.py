"""DEAD family: public definitions no running code reaches."""

import textwrap

import pytest
from helpers import get_rule

from repro.devtools.engine import LintContext, ModuleUnderLint, lint_module
from repro.devtools.lint import lint_paths

#: One throwaway project: the judged module plus its callers, by path.
PROJECT = {
    "src/repro/__init__.py": "",
    "src/repro/pkg/__init__.py": """
        from repro.pkg.mod import reexported

        __all__ = ["reexported"]
    """,
    "src/repro/pkg/mod.py": """
        from dataclasses import dataclass

        from repro.registry import register


        def only_tests():
            return 1


        def reexported():
            return 2


        def countdown(n):
            return countdown(n - 1) if n else 0


        def dead_caller():
            return chained()


        def chained():
            return 3


        def helper():
            return 4


        def live_entry():
            return helper()


        def from_examples():
            return 5


        def from_benchmarks():
            return 6


        def from_scripts():
            return 7


        def _private():
            return 8


        class Live:
            def used(self):
                return 9

            def unused_method(self):
                return 10

            def __repr__(self):
                return "Live()"


        class DeadClass:
            def method(self):
                return DeadClass()


        @dataclass
        class UnusedRecord:
            value: int


        @register
        class Registered:
            experiment_id = "registered"
    """,
    "examples/demo.py": """
        from repro.pkg.mod import Live, from_examples, live_entry

        live_entry()
        from_examples()
        Live().used()
    """,
    "benchmarks/bench_demo.py": """
        from repro.pkg.mod import from_benchmarks

        from_benchmarks()
    """,
    "scripts/tool.py": """
        from repro.pkg import mod

        mod.from_scripts()
    """,
    "tests/test_mod.py": """
        from repro.pkg.mod import DeadClass, UnusedRecord, only_tests, reexported

        def test_everything():
            assert only_tests() == 1
            assert reexported() == 2
            assert UnusedRecord(1).value == 1
            assert isinstance(DeadClass().method(), DeadClass)
    """,
}


@pytest.fixture(scope="module")
def flagged(tmp_path_factory):
    """Qualified names DEAD001 reports in the fixture project, by name."""
    root = tmp_path_factory.mktemp("project")
    for relative, source in PROJECT.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip())
    report = lint_paths([root / "src"], root=root, rules=[get_rule("DEAD001")])
    return {finding.message.split()[0]: finding for finding in report.findings}


class TestFlags:
    def test_definition_referenced_only_from_tests(self, flagged):
        assert "only_tests" in flagged

    def test_init_reexport_and_all_are_not_references(self, flagged):
        assert "reexported" in flagged

    def test_unused_method_of_a_live_class(self, flagged):
        assert "Live.unused_method" in flagged
        assert "Live.used" not in flagged

    def test_unused_dataclass(self, flagged):
        assert "UnusedRecord" in flagged

    def test_own_recursive_call_is_not_a_use(self, flagged):
        assert "countdown" in flagged

    def test_helper_reached_only_from_dead_code(self, flagged):
        assert {"dead_caller", "chained"} <= set(flagged)

    def test_dead_class_is_reported_without_its_methods(self, flagged):
        assert "DeadClass" in flagged
        assert "DeadClass.method" not in flagged

    def test_finding_sits_on_the_definition(self, flagged):
        finding = flagged["only_tests"]
        assert finding.path == "src/repro/pkg/mod.py"
        assert finding.line == 6
        assert finding.rule == "DEAD001"

    def test_nothing_else_is_flagged(self, flagged):
        assert set(flagged) == {
            "only_tests",
            "reexported",
            "countdown",
            "dead_caller",
            "chained",
            "Live.unused_method",
            "DeadClass",
            "UnusedRecord",
        }


class TestKeeps:
    def test_callers_in_examples_benchmarks_and_scripts(self, flagged):
        for name in ("from_examples", "from_benchmarks", "from_scripts", "live_entry"):
            assert name not in flagged

    def test_caller_in_the_same_module(self, flagged):
        assert "helper" not in flagged

    def test_register_classes_dunders_and_private_names(self, flagged):
        for name in ("Registered", "Live.__repr__", "_private"):
            assert name not in flagged


class TestScope:
    def test_module_outside_the_project_is_not_judged(self, tmp_path):
        module = ModuleUnderLint.parse(
            "src/repro/pkg/fake.py", "def nobody_calls_me():\n    return 1\n"
        )
        context = LintContext(root=tmp_path)
        assert lint_module(module, context, rules=[get_rule("DEAD001")]) == []

    def test_rule_is_scoped_to_the_package(self):
        rule = get_rule("DEAD001")
        assert rule.applies("src/repro/simulation/fastpath/engine.py")
        assert not rule.applies("scripts/check_docs.py")
        assert not rule.applies("examples/quickstart.py")
