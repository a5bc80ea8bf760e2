"""Documentation reference checker (``python -m scripts.check_docs``).

Walks ``README.md`` and every Markdown file under ``docs/`` and verifies:

* every dotted ``repro.*`` reference resolves — the longest importable
  module prefix is imported and any remaining segments are resolved as
  attributes (classes, functions, methods), so renaming a module or an
  analyzer without updating the docs fails CI;
* every relative Markdown link ``[text](path)`` points at a file or
  directory that exists (anchors and absolute URLs are skipped);
* every backticked repo path (one starting with ``src/``, ``tests/``,
  ``benchmarks/``, ``examples/``, ``scripts/`` or ``docs/``) exists, so
  deleting or renaming a file the docs cite fails too;
* the rule catalogue in ``docs/linting.md`` matches the ``repro lint``
  registry in both directions — a registered rule id missing from the
  docs, or a documented id missing from the registry, fails.

Exits non-zero listing every broken reference.  Pure standard library.
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Dotted repro references, e.g. ``repro.analysis.engine.AnalysisEngine``.
_REFERENCE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: Markdown inline links: ``[text](target)``.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Backticked repo paths, e.g. ``tests/simulation/test_fastpath.py``; a
#: pytest node id's ``::test`` suffix is not part of the path.
_REPO_PATH = re.compile(r"`((?:src|tests|benchmarks|examples|scripts|docs)/[^`\s:]*)")


def _doc_files() -> list[pathlib.Path]:
    """README plus every Markdown file under docs/."""
    files = [ROOT / "README.md"]
    docs = ROOT / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def _resolve_reference(reference: str) -> bool:
    """``True`` if a dotted ``repro.*`` name resolves to a module/attribute."""
    segments = reference.split(".")
    for cut in range(len(segments), 0, -1):
        module_name = ".".join(segments[:cut])
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        target = module
        try:
            for attribute in segments[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def _broken_paths(text: str) -> list[str]:
    """Backticked repo paths in ``text`` that do not exist, sorted."""
    return sorted(
        {target for target in _REPO_PATH.findall(text) if not (ROOT / target).exists()}
    )


def _check_file(path: pathlib.Path) -> list[str]:
    """Every broken reference/link in one Markdown file, as messages."""
    problems: list[str] = []
    text = path.read_text()
    relative = path.relative_to(ROOT)
    for match in sorted(set(_REFERENCE.findall(text))):
        if not _resolve_reference(match):
            problems.append(f"{relative}: unresolvable reference {match!r}")
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{relative}: broken link {target!r}")
    for target in _broken_paths(text):
        problems.append(f"{relative}: missing repo path {target!r}")
    return problems


#: Lint rule identifiers as they appear in docs/linting.md (`DET001`, ...).
_RULE_ID = re.compile(r"`([A-Z]{3,5}\d{3})`")


def _check_lint_catalogue() -> list[str]:
    """Mismatches between docs/linting.md and the repro lint registry."""
    from repro.devtools.engine import rule_ids

    doc_path = ROOT / "docs" / "linting.md"
    if not doc_path.is_file():
        return ["docs/linting.md: missing (the repro lint catalogue lives here)"]
    documented = set(_RULE_ID.findall(doc_path.read_text()))
    registered = set(rule_ids())
    problems = [
        f"docs/linting.md: registered rule {rule_id} is undocumented"
        for rule_id in sorted(registered - documented)
    ]
    problems.extend(
        f"docs/linting.md: documented rule {rule_id} is not registered"
        for rule_id in sorted(documented - registered)
    )
    return problems


def main() -> int:
    """Check every doc file; print problems and return an exit status."""
    problems: list[str] = []
    files = _doc_files()
    for path in files:
        problems.extend(_check_file(path))
    problems.extend(_check_lint_catalogue())
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{len(problems)} broken doc reference(s)", file=sys.stderr)
        return 1
    print(f"checked {len(files)} doc file(s): all repro.* references, "
          "relative links and repo paths resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
