"""The legacy propagation engine is a test oracle, not a production path.

``FastPropagationEngine`` is the one engine the session layer, the timeline
and the figure scenarios run.  The message-object ``PropagationEngine``
stays in the package only so the fuzz harness, the golden suites and the
benchmark baselines can check the fast path against it; this test keeps any
other production module from importing it again.

Propagation also runs in one process: prefixes propagate one after another
in the caller, and parallelism lives in ``repro sweep``, where cases are
independent.  A second test keeps process pools out of ``repro.simulation``.
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


def test_simulation_starts_no_processes():
    offenders = []
    for path in sorted((SRC / "repro" / "simulation").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("concurrent", "multiprocessing") for m in modules):
                offenders.append(path.relative_to(SRC).as_posix())
    assert offenders == []
