"""DEAD: definitions in ``src/`` that no running code reaches.

Code that only its own tests call still has to be read, kept green and
carried through every refactor, yet it contributes nothing to a report.
This family keeps such definitions out of the package: a public
function, class or method must be referenced from code that runs —
``src/``, ``examples/``, ``benchmarks/`` or ``scripts/`` — and not only
from its own body.  ``tests/`` is never read.

The check matches by *name*, not by resolved binding: any ``Name``,
``Attribute``, import alias or identifier-valued string constant spelling
the definition's name is a reference.  A name shared with live code can
therefore hide a dead definition, but the rule never flags live code.

A reference made inside a definition the rule finds dead does not count,
so a helper kept alive only by dead code is flagged in the same run; the
dead set is a fixpoint over the whole project.  A method of a dead class
is dead with it and is not reported on its own.

Not references: imports in ``__init__.py`` files (re-exports) and
``__all__`` lists, since exporting a name is not using it.

Never flagged: ``_private`` and dunder names, and classes decorated with
``@register`` (experiments and lint rules, which are reached through
their registry).  Command handlers stay live through their
``set_defaults(func=...)`` reference.

Rules:

* :class:`UnreferencedDefinitionRule` (DEAD001) — a public module-level
  function or class, or a public method of a module-level class, that is
  referenced only from its own body, from dead code or from ``tests/``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.devtools.engine import LintContext, ModuleUnderLint, Rule, dotted_name, register
from repro.devtools.lint import collect_files
from repro.devtools.model import Finding

#: Project directories whose code counts as a caller (``tests/`` does not).
CALLER_DIRS = ("src", "examples", "benchmarks", "scripts")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

_Node = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


@dataclass(eq=False)
class _Definition:
    """One judged definition and whether a live reference reaches it."""

    qualified: str
    node: _Node
    parent: _Definition | None = None
    live: bool = False


@dataclass
class _Scan:
    """One file's judged definitions and its references.

    Each reference carries its *guards*: the judged definitions enclosing
    it.  It is live only when every guard is.
    """

    judged: bool
    is_package: bool
    definitions: list[_Definition] = field(default_factory=list)
    references: list[tuple[str, tuple[_Definition, ...]]] = field(default_factory=list)

    def module(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                self.top_level(node)
            else:
                self.visit(node, ())

    def top_level(self, node: _Node) -> None:
        is_class = isinstance(node, ast.ClassDef)
        judged = None if is_class and _is_registered(node) else self.judge(node, node.name)
        guards = (judged,) if judged else ()
        if not is_class:
            self.visit(node, guards)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                method = self.judge(child, f"{node.name}.{child.name}", judged)
                self.visit(child, guards + ((method,) if method else ()))
            else:
                self.visit(child, guards)

    def judge(
        self, node: _Node, qualified: str, parent: _Definition | None = None
    ) -> _Definition | None:
        if not self.judged or node.name.startswith("_"):
            return None
        definition = _Definition(qualified, node, parent)
        self.definitions.append(definition)
        return definition

    def visit(self, node: ast.AST, guards: tuple[_Definition, ...]) -> None:
        stack = [node]
        while stack:
            current = stack.pop()
            if _is_all_assignment(current):
                continue
            if isinstance(current, (ast.Import, ast.ImportFrom)):
                if not self.is_package:
                    for alias in current.names:
                        self.references.append((alias.name.rsplit(".", 1)[-1], guards))
                continue
            name = _referenced_name(current)
            if name is not None:
                self.references.append((name, guards))
            stack.extend(ast.iter_child_nodes(current))


def _dead_definitions(context: LintContext, rule: Rule) -> dict[Path, list[_Definition]]:
    """Per scanned file, its dead definitions in source order.

    Scans the caller directories under ``context.root`` through
    ``context.parse_module``, so files other rules already read are not
    parsed twice.  Starting from nothing live, a definition becomes live
    once a live reference names it (and, for a method, its class is live);
    repeat until nothing changes.
    """
    root = context.root.resolve()
    directories = [context.root / name for name in CALLER_DIRS]
    definitions: dict[Path, list[_Definition]] = {}
    uses: dict[str, set[tuple[_Definition, ...]]] = {}
    for path in collect_files([directory for directory in directories if directory.is_dir()]):
        tree = context.parse_module(path)
        if tree is None:
            continue
        scan = _Scan(
            judged=rule.applies(path.relative_to(root).as_posix()),
            is_package=path.name == "__init__.py",
        )
        scan.module(tree)
        definitions[path] = scan.definitions
        for name, guards in scan.references:
            uses.setdefault(name, set()).add(guards)
    pending = [definition for found in definitions.values() for definition in found]
    changed = True
    while changed:
        changed = False
        for definition in pending:
            if definition.live or (definition.parent and not definition.parent.live):
                continue
            if any(
                all(guard.live for guard in guards)
                for guards in uses.get(definition.node.name, ())
            ):
                definition.live = changed = True
    return {
        path: [
            definition
            for definition in found
            if not definition.live and (definition.parent is None or definition.parent.live)
        ]
        for path, found in definitions.items()
    }


def _referenced_name(node: ast.AST) -> str | None:
    """The name a ``Name``/``Attribute``/identifier string node refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return node.value
    return None


def _is_all_assignment(node: ast.AST) -> bool:
    """``True`` for ``__all__ = ...`` / ``__all__ += ...`` statements."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _is_registered(node: ast.ClassDef) -> bool:
    """``True`` when the class carries a ``@register`` decorator."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = dotted_name(target)
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "register":
            return True
    return False


@register
class UnreferencedDefinitionRule(Rule):
    """DEAD001: a public definition in ``src/`` that no running code reaches.

    The dead set is computed once per lint run over the whole project and
    kept in ``LintContext.derived``; each module then reports its share.
    A module outside the scanned project (an inline source, a fixture under
    ``tests/``) is not judged, since its callers are unknown.
    """

    id = "DEAD001"
    family = "DEAD"
    summary = (
        "public definition referenced from no running code (src/, examples/, "
        "benchmarks/, scripts/) outside its own body"
    )
    applies_to = ("src/repro/*",)

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield one finding per dead definition of ``module``."""
        path = context.root / module.path
        if not path.is_file():
            return
        dead = context.derived.get(self.id)
        if dead is None:
            dead = context.derived[self.id] = _dead_definitions(context, self)
        for definition in dead.get(path.resolve(), ()):
            yield module.finding(
                self,
                definition.node,
                f"{definition.qualified} is referenced from no running code; "
                "delete it, or move it to tests/ if only tests use it",
            )
