"""The legacy propagation engine is a test oracle, not a production path.

``FastPropagationEngine`` is the one engine the session layer, the timeline
and the figure scenarios run.  The message-object ``PropagationEngine``
stays in the package only so the fuzz harness, the golden suites and the
benchmark baselines can check the fast path against it; this test keeps any
other production module from importing it again.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Production modules allowed to import the oracle: the fuzz harness and the
#: ``repro.simulation`` package re-export.
ALLOWED = ("repro/fuzz/", "repro/simulation/__init__.py")


def _imports_oracle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "PropagationEngine" for alias in node.names
        ):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "PropagationEngine":
            return True
    return False


def test_only_the_fuzz_harness_imports_the_legacy_engine():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(ALLOWED):
            continue
        if _imports_oracle(ast.parse(path.read_text(), filename=str(path))):
            offenders.append(relative)
    assert offenders == []


def test_the_check_sees_a_direct_import():
    tree = ast.parse("from repro.simulation.propagation import PropagationEngine\n")
    assert _imports_oracle(tree)
    assert not _imports_oracle(ast.parse("from repro.simulation import fastpath\n"))
