"""Engine mechanics: registry, scopes, suppressions, parse failures."""

import pytest
from helpers import get_rule

from repro.devtools.engine import ModuleUnderLint, all_rules, dotted_name, rule_ids
from repro.devtools.lint import lint_paths


class TestRegistry:
    def test_three_families_with_at_least_two_rules_each(self):
        families = {}
        for rule in all_rules():
            families.setdefault(rule.family, []).append(rule.id)
        for family in ("DET", "CODEC", "POOL"):
            assert len(families[family]) >= 2, families

    def test_rules_sorted_and_unique(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_rule_ids_include_engine_rules(self):
        ids = rule_ids()
        assert "LINT001" in ids and "LINT002" in ids

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("NOPE999")


class TestScopes:
    def test_det_rules_scoped_to_deterministic_paths(self):
        rule = get_rule("DET001")
        assert rule.applies("src/repro/storage/codecs.py")
        assert rule.applies("src/repro/analysis/index.py")
        assert not rule.applies("src/repro/cli.py")
        assert not rule.applies("benchmarks/bench_engine.py")

    def test_content_gated_rules_apply_everywhere(self):
        for rule_id in ("CODEC001", "CODEC002", "POOL001", "POOL002"):
            assert get_rule(rule_id).applies_to is None
            assert get_rule(rule_id).applies("anything/at/all.py")


class TestSuppressions:
    def test_noqa_comment_parsing(self):
        module = ModuleUnderLint.parse(
            "x.py",
            "value = 1  # repro: noqa[DET001, DET002] -- because reasons\n",
        )
        (suppression,) = module.suppressions
        assert suppression.line == 1
        assert suppression.rules == ("DET001", "DET002")
        assert suppression.reason == "because reasons"

    def test_noqa_without_reason(self):
        module = ModuleUnderLint.parse("x.py", "value = 1  # repro: noqa[DET001]\n")
        (suppression,) = module.suppressions
        assert suppression.reason == ""

    def test_fixture_suppression_used_stale_and_unknown(self, lint_fixture):
        findings = lint_fixture("suppressed.py")
        # The wall-clock call is suppressed; the stale and unknown-rule
        # suppressions each produce one LINT001 bookkeeping finding.
        assert [finding.rule for finding in findings] == ["LINT001", "LINT001"]
        messages = "\n".join(finding.message for finding in findings)
        assert "matches no finding" in messages
        assert "unknown rule 'NOPE999'" in messages
        assert not any(finding.rule == "DET002" for finding in findings)


class TestParseFailures:
    def test_syntax_error_becomes_lint002(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([tmp_path], root=tmp_path)
        (finding,) = report.findings
        assert finding.rule == "LINT002"
        assert finding.path == "broken.py"
        assert not report.ok


class TestHelpers:
    def test_dotted_name(self):
        import ast

        expr = ast.parse("a.b.c(1)").body[0].value.func
        assert dotted_name(expr) == "a.b.c"
        call = ast.parse("f()(x)").body[0].value.func
        assert dotted_name(call) is None
