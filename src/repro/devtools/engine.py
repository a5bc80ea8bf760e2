"""The visitor-based AST rule engine behind ``python -m repro lint``.

The engine parses each file once into a :class:`ModuleUnderLint` (AST plus
inline suppressions), then runs every registered :class:`Rule` whose scope
matches the file.  Findings on a line carrying a matching hash-prefixed
``repro: noqa[RULE]`` comment are dropped; suppressions that never match
a finding — and suppressions naming unknown rules — are themselves
reported (``LINT001``), so stale escapes cannot accumulate silently.

Rules register themselves with the :func:`register` decorator at import
time; :func:`all_rules` returns one instance per rule, sorted by id.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.devtools.model import Finding

#: Inline suppression comments: a hash, then ``repro: noqa[DET001]`` or
#: ``repro: noqa[DET001,POOL002] -- rationale text``.
_NOQA = re.compile(
    r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]*)\](?:\s*--\s*(?P<reason>.*\S))?"
)

#: Rule id of the engine's own bookkeeping findings (unused/unknown noqa).
SUPPRESSION_RULE = "LINT001"

#: Rule id reported for files the engine cannot parse.
PARSE_RULE = "LINT002"


@dataclass
class Suppression:
    """One inline ``# repro: noqa[...]`` comment.

    Attributes:
        line: 1-based line the comment sits on.
        rules: rule ids the comment names, in source order.
        reason: rationale text after ``--`` (empty when omitted).
        used: rule ids that actually matched a finding on this line.
    """

    line: int
    rules: tuple[str, ...]
    reason: str
    used: set[str] = field(default_factory=set)


@dataclass
class ModuleUnderLint:
    """One parsed source file, ready for rules to visit.

    Attributes:
        path: repo-relative posix path used in findings and scope matching.
        source: the file's text.
        tree: the parsed :class:`ast.Module`.
        suppressions: inline suppressions, keyed by nothing — scan the list.
    """

    path: str
    source: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleUnderLint":
        """Parse one file into a lintable module.

        Args:
            path: repo-relative posix path (display + scope matching).
            source: the file's text.

        Returns:
            The parsed module with its suppression comments extracted.

        Raises:
            SyntaxError: when the source does not parse.
        """
        tree = ast.parse(source, filename=path)
        suppressions = []
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _NOQA.search(line)
            if match is None:
                continue
            rules = tuple(
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            )
            suppressions.append(
                Suppression(line=lineno, rules=rules, reason=match.group("reason") or "")
            )
        return cls(path=path, source=source, tree=tree, suppressions=suppressions)

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        """The suppression covering ``rule`` on ``line``, if any."""
        for suppression in self.suppressions:
            if suppression.line == line and rule in suppression.rules:
                return suppression
        return None

    def finding(self, rule: "Rule | str", node: ast.AST, message: str) -> Finding:
        """Build a finding for ``node`` in this module."""
        rule_id = rule if isinstance(rule, str) else rule.id
        return Finding(
            rule=rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class LintContext:
    """Run-wide state shared by every rule invocation.

    Attributes:
        root: the project root (paths in findings are relative to it).
        src_roots: import-resolution roots for cross-module rules (the
            CODEC family resolves ``from repro.x import Y`` against these).
        module_cache: parsed-module cache keyed by absolute path, shared by
            rules that read other files.
        derived: project-wide values a rule builds once per run, keyed by
            rule id (DEAD001's project-wide dead set).
    """

    root: Path
    src_roots: tuple[Path, ...] = ()
    module_cache: dict[Path, ast.Module | None] = field(default_factory=dict)
    derived: dict[str, object] = field(default_factory=dict, init=False, repr=False)

    def parse_module(self, path: Path) -> ast.Module | None:
        """Parse (and cache) another source file, ``None`` when unreadable."""
        resolved = path.resolve()
        if resolved not in self.module_cache:
            try:
                self.module_cache[resolved] = ast.parse(
                    resolved.read_text(), filename=str(resolved)
                )
            except (OSError, SyntaxError, ValueError):
                self.module_cache[resolved] = None
        return self.module_cache[resolved]

    def resolve_import(self, dotted: str) -> Path | None:
        """The source file of a dotted module name under ``src_roots``."""
        relative = Path(*dotted.split("."))
        for src_root in self.src_roots:
            for candidate in (
                src_root / relative.with_suffix(".py"),
                src_root / relative / "__init__.py",
            ):
                if candidate.is_file():
                    return candidate
        return None


class Rule:
    """Base class of one lint rule.

    Subclasses set the class attributes and implement :meth:`check`.

    Attributes:
        id: the rule identifier (``"DET001"``, ...).
        family: the rule family (``"DET"``, ``"CODEC"``, ``"POOL"``).
        summary: one-line description shown in ``docs/linting.md`` and
            error listings.
        applies_to: fnmatch globs (posix, repo-relative) the rule is scoped
            to; ``None`` means every file (the rule self-gates on content).
    """

    id: str = ""
    family: str = ""
    summary: str = ""
    applies_to: tuple[str, ...] | None = None

    def applies(self, path: str) -> bool:
        """``True`` when the rule's scope covers ``path``."""
        if self.applies_to is None:
            return True
        return any(fnmatch.fnmatch(path, pattern) for pattern in self.applies_to)

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to the global registry.

    Args:
        rule_cls: the rule class; its ``id`` must be unique.

    Returns:
        The class, unchanged (decorator use).

    Raises:
        ValueError: when the id is empty or already registered.
    """
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    return [rule for _, rule in sorted(_REGISTRY.items())]


def rule_ids() -> list[str]:
    """Every registered rule id plus the engine's own ids, sorted."""
    return sorted([*_REGISTRY, SUPPRESSION_RULE, PARSE_RULE])


def lint_module(
    module: ModuleUnderLint,
    context: LintContext,
    rules: Iterable[Rule] | None = None,
    respect_scopes: bool = True,
) -> list[Finding]:
    """Run rules over one parsed module and apply inline suppressions.

    Args:
        module: the parsed file.
        context: run-wide state (roots, module cache).
        rules: the rules to run (default: every registered rule).
        respect_scopes: honour each rule's ``applies_to`` scope (tests
            lint fixtures outside the real scopes with ``False``).

    Returns:
        Unsuppressed findings, plus one :data:`SUPPRESSION_RULE` finding per
        unused or unknown suppression, sorted by ``(line, rule)``.
    """
    selected = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    ran_ids = set()
    for rule in selected:
        if respect_scopes and not rule.applies(module.path):
            continue
        ran_ids.add(rule.id)
        for finding in rule.check(module, context):
            suppression = module.suppression_for(finding.rule, finding.line)
            if suppression is not None:
                suppression.used.add(finding.rule)
            else:
                findings.append(finding)
    known = set(rule_ids())
    for suppression in module.suppressions:
        for rule_id in suppression.rules:
            if rule_id not in known:
                findings.append(
                    _suppression_finding(
                        module, suppression, f"suppression names unknown rule {rule_id!r}"
                    )
                )
            elif rule_id in ran_ids and rule_id not in suppression.used:
                findings.append(
                    _suppression_finding(
                        module,
                        suppression,
                        f"suppression of {rule_id} matches no finding; remove it",
                    )
                )
    findings.sort(key=lambda finding: (finding.line, finding.rule, finding.column))
    return findings


def _suppression_finding(
    module: ModuleUnderLint, suppression: Suppression, message: str
) -> Finding:
    """A :data:`SUPPRESSION_RULE` finding at the suppression's line."""
    return Finding(
        rule=SUPPRESSION_RULE,
        path=module.path,
        line=suppression.line,
        column=0,
        message=message,
    )


# -- shared AST helpers used by several rule families --------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def walk_scopes(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield ``(scope node, body)`` for the module and every function.

    Class bodies are not scopes of their own — their statements belong to
    the enclosing scope for the flow-insensitive name tracking the rules
    do — but functions nested at any depth each get their own entry.
    """
    yield tree, list(tree.body)
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, list(child.body)
            stack.append(child)


def scope_statements(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope's statements without descending into nested functions.

    Function definitions themselves are yielded (a scope may need their
    names) but their bodies belong to the nested scope, never this one.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def iteration_sites(
    scope_body: list[ast.stmt],
) -> Iterator[tuple[ast.expr, str]]:
    """Yield ``(iterated expression, context label)`` pairs in one scope.

    Covers ``for`` loops, comprehension generators, ordered-materialising
    calls (``tuple``/``list``/``enumerate``/``iter``/``map``/``filter``/
    ``zip`` and ``<sep>.join``) and ``*``-unpacking into ordered displays.
    Order-insensitive consumers (``sorted``, ``len``, ``sum``, ``min``,
    ``max``, ``any``, ``all``, ``set``, ``frozenset``) are deliberately
    not iteration sites.
    """
    for node in scope_statements(scope_body):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, "for loop"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            # Set comprehensions are order-insensitive (the result is a set
            # again); list/dict/generator results all preserve iteration order.
            if not isinstance(node, ast.SetComp):
                for generator in node.generators:
                    yield generator.iter, "comprehension"
        elif isinstance(node, ast.Call):
            yield from _call_iteration_sites(node)
        elif isinstance(node, (ast.List, ast.Tuple)):
            for element in node.elts:
                if isinstance(element, ast.Starred):
                    yield element.value, "unpacking"


#: Ordered-materialising builtins and the argument positions they iterate.
_ORDERED_CALLS: dict[str, Callable[[list[ast.expr]], list[ast.expr]]] = {
    "tuple": lambda args: args[:1],
    "list": lambda args: args[:1],
    "iter": lambda args: args[:1],
    "enumerate": lambda args: args[:1],
    "map": lambda args: args[1:],
    "filter": lambda args: args[1:2],
    "zip": lambda args: args,
}


def _call_iteration_sites(node: ast.Call) -> Iterator[tuple[ast.expr, str]]:
    """Iteration sites introduced by one call expression."""
    if isinstance(node.func, ast.Name):
        selector = _ORDERED_CALLS.get(node.func.id)
        if selector is not None:
            for argument in selector(node.args):
                yield argument, f"{node.func.id}() argument"
    elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
        for argument in node.args[:1]:
            yield argument, "join() argument"
