"""The docs reference checker passes on the committed tree (and can fail)."""

from scripts.check_docs import _broken_paths, _resolve_reference, main


def test_docs_references_all_resolve():
    assert main() == 0


def test_resolver_accepts_modules_and_attributes():
    assert _resolve_reference("repro.analysis")
    assert _resolve_reference("repro.analysis.engine.AnalysisEngine")
    assert _resolve_reference("repro.core.export_policy.ExportPolicyAnalyzer.find_sa_prefixes")


def test_resolver_rejects_missing_names():
    assert not _resolve_reference("repro.no_such_module")
    assert not _resolve_reference("repro.core.atoms.NoSuchAnalyzer")
    assert not _resolve_reference("repro.analysis.engine.AnalysisEngine.no_such_method")


def test_missing_backticked_repo_path_fails():
    text = (
        "Run `tests/no_such_test.py::test_x`, then `src/repro` and "
        "`docs/testing.md`; `python tests/strategies.py` is a command."
    )
    assert _broken_paths(text) == ["tests/no_such_test.py"]
