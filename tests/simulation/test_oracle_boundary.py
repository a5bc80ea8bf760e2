"""The legacy engines are test oracles, not production paths.

``FastPropagationEngine`` is the one propagation engine the session layer,
the timeline and the figure scenarios run, and ``AnalysisEngine`` is the one
analysis engine.  The message-object ``PropagationEngine`` and the
:mod:`repro.core` analyzer classes stay in the package only so the fuzz
harness, the golden suites and the benchmark baselines can check the
production engines against them; these tests keep any other production
module from importing them again.  There is no exception: the Figs. 6/7
timeline (``repro/analysis/persistence.py``) classifies each snapshot's
columnar RIB with the analysis engine's own Fig. 4 rule.

Propagation runs in one process and the whole package in one thread:
parallelism lives in ``repro sweep`` and ``repro fuzz``, where cases are
independent processes.  The analysis engine and the stage cache hold no
locks, which is only correct while nothing starts a thread; the last two
tests keep it that way.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Production modules allowed to import the oracle: the fuzz harness and the
#: ``repro.simulation`` package re-export.
ALLOWED = ("repro/fuzz/", "repro/simulation/__init__.py")

#: The repro.core analyzer classes, oracles of AnalysisEngine.
ANALYZERS = frozenset(
    {
        "ExportPolicyAnalyzer",
        "CauseAnalyzer",
        "PolicyAtomAnalyzer",
        "ImportPolicyAnalyzer",
        "ConsistencyAnalyzer",
        "CommunityAnalyzer",
        "PeerExportAnalyzer",
        "Verifier",
    }
)

#: Modules that may import the analyzers: their home and the fuzz harness.
ANALYZER_HOMES = ("repro/core/", "repro/fuzz/")

#: (module, analyzer) pairs allowed outside those homes.
ANALYZER_EXCEPTIONS: set[tuple[str, str]] = set()


def _production_modules(root: pathlib.Path = SRC / "repro"):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(), filename=str(path)
        )


def _imports_oracle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "PropagationEngine" for alias in node.names
        ):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "PropagationEngine":
            return True
    return False


def _imported_analyzers(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & ANALYZERS


def _imported_modules(tree: ast.AST) -> list[str]:
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    return modules


def _starts_threads(tree: ast.AST) -> bool:
    if any(m.split(".")[0] == "threading" for m in _imported_modules(tree)):
        return True
    return any(
        (isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor")
        or (isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor")
        or (
            isinstance(node, ast.alias)
            and node.name.split(".")[-1] == "ThreadPoolExecutor"
        )
        for node in ast.walk(tree)
    )


def test_only_the_fuzz_harness_imports_the_legacy_engine():
    offenders = [
        relative
        for relative, tree in _production_modules()
        if not relative.startswith(ALLOWED) and _imports_oracle(tree)
    ]
    assert offenders == []


def test_the_check_sees_a_direct_import():
    tree = ast.parse("from repro.simulation.propagation import PropagationEngine\n")
    assert _imports_oracle(tree)
    assert not _imports_oracle(ast.parse("from repro.simulation import fastpath\n"))


def test_simulation_starts_no_processes():
    offenders = [
        relative
        for relative, tree in _production_modules(SRC / "repro" / "simulation")
        if any(
            m.split(".")[0] in ("concurrent", "multiprocessing")
            for m in _imported_modules(tree)
        )
    ]
    assert offenders == []


def test_only_core_and_fuzz_import_the_legacy_analyzers():
    offenders = sorted(
        (relative, name)
        for relative, tree in _production_modules()
        if not relative.startswith(ANALYZER_HOMES)
        for name in _imported_analyzers(tree)
        if (relative, name) not in ANALYZER_EXCEPTIONS
    )
    assert offenders == []


def test_the_analyzer_check_sees_imports_and_attributes():
    assert _imported_analyzers(
        ast.parse("from repro.core.causes import Case3Result, CauseAnalyzer\n")
    ) == {"CauseAnalyzer"}
    assert _imported_analyzers(
        ast.parse("import repro.core.verification as v\nv.Verifier(graph)\n")
    ) == {"Verifier"}
    assert not _imported_analyzers(
        ast.parse("from repro.core.export_policy import SAPrefixReport\n")
    )


def test_nothing_starts_threads():
    offenders = [
        relative for relative, tree in _production_modules() if _starts_threads(tree)
    ]
    assert offenders == []


def test_the_thread_check_sees_both_spellings():
    assert _starts_threads(ast.parse("import threading\n"))
    assert _starts_threads(
        ast.parse("from concurrent.futures import ThreadPoolExecutor\n")
    )
    assert _starts_threads(ast.parse("import concurrent.futures as f\nf.ThreadPoolExecutor\n"))
    assert not _starts_threads(
        ast.parse("from concurrent.futures import ProcessPoolExecutor\n")
    )
