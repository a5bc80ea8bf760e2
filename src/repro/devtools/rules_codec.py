"""CODEC: schema-drift cross-check between codecs and the classes they serialize.

A :class:`~repro.storage.codecs.StageCodec` must read every field of the
dataclasses it lowers and write every field when it raises them — a field
added to ``RibColumns`` or ``ASPolicy`` that no codec touches silently drops
data from the durable store, and a codec touching a renamed attribute
fails only at decode time.  These rules resolve both sides statically:

* the *schema* side from the AST of the defining modules
  (:mod:`repro.devtools.schema` — dataclass fields, plain-class
  ``self.X`` attributes, constructor signatures);
* the *codec* side from the codec module's AST — attribute reads on
  annotation-bound or constructor-bound names, and constructor keyword /
  positional arguments.

Rules:

* :class:`UnknownAttributeRule` (CODEC001) — the codec module touches an
  attribute or constructor argument the class does not define;
* :class:`UncoveredFieldRule` (CODEC002) — a dataclass used by the codec
  module has a field no code in the module ever reads or writes.

CODEC002 is restricted to dataclasses: plain classes (``AnnotatedASGraph``)
keep internal derived state a codec legitimately recomputes, so only their
attribute *existence* is enforced.

Both rules self-gate on "does this module define a ``StageCodec``
subclass", so they run everywhere without scoping noise and cover any
future codec module automatically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.devtools.engine import LintContext, ModuleUnderLint, Rule, register, walk_scopes
from repro.devtools.model import Finding
from repro.devtools.schema import ClassSchema, collect_schemas


@dataclass
class CodecAnalysis:
    """Accumulated cross-check state for one codec module.

    Attributes:
        registry: resolvable class schemas, keyed by local name.
        touched: attribute/field names each class had read or written.
        first_use: line where each class was first bound or constructed.
        findings: CODEC001 findings collected during the walk.
    """

    registry: dict[str, ClassSchema] = field(default_factory=dict)
    touched: dict[str, set[str]] = field(default_factory=dict)
    first_use: dict[str, int] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)


def _is_codec_module(tree: ast.Module) -> bool:
    """``True`` when the module defines a ``StageCodec`` subclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                name = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else None
                )
                if name == "StageCodec":
                    return True
    return False


def _imported_schemas(
    tree: ast.Module, context: LintContext
) -> dict[str, ClassSchema]:
    """Schemas of classes imported into the codec module, by local name."""
    registry: dict[str, ClassSchema] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
            continue
        source = context.resolve_import(node.module)
        if source is None:
            continue
        imported_tree = context.parse_module(source)
        if imported_tree is None:
            continue
        schemas = collect_schemas(imported_tree, node.module)
        for alias in node.names:
            if alias.name in schemas:
                registry[alias.asname or alias.name] = schemas[alias.name]
    return registry


def _schema_name_of_annotation(annotation: ast.expr | None) -> str | None:
    """The class name an annotation points at, if it is a plain reference."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip("'\"").rpartition(".")[2]
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return None


def crosscheck(
    module: ModuleUnderLint,
    context: LintContext,
    schema_overrides: dict[str, ClassSchema] | None = None,
) -> CodecAnalysis | None:
    """Cross-check one codec module against its classes' static schemas.

    Args:
        module: the parsed module (must define a ``StageCodec`` subclass,
            otherwise ``None`` is returned and no rules apply).
        context: lint context providing import resolution.
        schema_overrides: replacement schemas by class name — the
            missing-field regression tests inject a cloned dataclass with
            an extra field here to prove the check would catch the drift.

    Returns:
        The analysis (findings carry rule ids CODEC001/CODEC002), or
        ``None`` for non-codec modules.
    """
    if not _is_codec_module(module.tree):
        return None
    analysis = CodecAnalysis()
    analysis.registry.update(_imported_schemas(module.tree, context))
    analysis.registry.update(collect_schemas(module.tree, module.path))
    if schema_overrides:
        analysis.registry.update(schema_overrides)
    for scope, body in walk_scopes(module.tree):
        bindings = _scope_bindings(scope, body, analysis)
        _check_scope(module, body, bindings, analysis)
    _append_uncovered_field_findings(module, analysis)
    return analysis


def _scope_bindings(
    scope: ast.AST, body: list[ast.stmt], analysis: CodecAnalysis
) -> dict[str, str]:
    """Names bound to registry classes within one scope.

    A name is bound by an annotated parameter, an annotated assignment, a
    direct construction (``x = RibColumns(...)``) or a factory-classmethod
    call (``x = AnnotatedASGraph.from_adjacency_rows(...)``).
    """
    bindings: dict[str, str] = {}
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = scope.args
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
            name = _schema_name_of_annotation(arg.annotation)
            if name in analysis.registry:
                bindings[arg.arg] = name
                _mark_use(analysis, name, scope.lineno)
    for node in _scope_statements(body):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = _schema_name_of_annotation(node.annotation)
            if name in analysis.registry:
                bindings[node.target.id] = name
                _mark_use(analysis, name, node.lineno)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            name = _constructed_class(node.value, analysis)
            if name is not None:
                _mark_use(analysis, name, node.value.lineno)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = name
    return bindings


def _constructed_class(call: ast.Call, analysis: CodecAnalysis) -> str | None:
    """The registry class a call constructs (directly or via classmethod)."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in analysis.registry:
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in analysis.registry
        and func.attr in analysis.registry[func.value.id].members
    ):
        return func.value.id
    return None


def _scope_statements(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _mark_use(analysis: CodecAnalysis, class_name: str, line: int) -> None:
    """Record that ``class_name`` is serialized by this module."""
    analysis.touched.setdefault(class_name, set())
    analysis.first_use.setdefault(class_name, line)


def _check_scope(
    module: ModuleUnderLint,
    body: list[ast.stmt],
    bindings: dict[str, str],
    analysis: CodecAnalysis,
) -> None:
    """Collect attribute and constructor usage (and CODEC001 findings)."""
    for node in _scope_statements(body):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bindings
        ):
            class_name = bindings[node.value.id]
            schema = analysis.registry[class_name]
            if node.attr in schema.members:
                analysis.touched.setdefault(class_name, set()).add(node.attr)
            else:
                analysis.findings.append(
                    module.finding(
                        "CODEC001",
                        node,
                        f"'{node.value.id}.{node.attr}' touches unknown "
                        f"attribute '{node.attr}' of {schema.module}.{schema.name}",
                    )
                )
        elif isinstance(node, ast.Call):
            class_name = _directly_constructed(node, analysis)
            if class_name is not None:
                _mark_use(analysis, class_name, node.lineno)
                _check_constructor(module, node, class_name, analysis)


def _directly_constructed(call: ast.Call, analysis: CodecAnalysis) -> str | None:
    """The registry class name when the call is a direct ``Class(...)``."""
    if isinstance(call.func, ast.Name) and call.func.id in analysis.registry:
        return call.func.id
    return None


def _check_constructor(
    module: ModuleUnderLint,
    call: ast.Call,
    class_name: str,
    analysis: CodecAnalysis,
) -> None:
    """Validate one ``Class(...)`` call's arguments against the schema."""
    schema = analysis.registry[class_name]
    touched = analysis.touched.setdefault(class_name, set())
    for position, argument in enumerate(call.args):
        if isinstance(argument, ast.Starred):
            break
        if position < len(schema.init_params):
            touched.add(schema.init_params[position])
    for keyword in call.keywords:
        if keyword.arg is None:  # **kwargs: opaque, nothing to verify
            continue
        if keyword.arg in schema.init_params or keyword.arg in schema.members:
            touched.add(keyword.arg)
        else:
            analysis.findings.append(
                module.finding(
                    "CODEC001",
                    call,
                    f"{class_name}(...) passes unknown constructor argument "
                    f"'{keyword.arg}' ({schema.module}.{schema.name} does not "
                    "declare it)",
                )
            )


def _append_uncovered_field_findings(
    module: ModuleUnderLint, analysis: CodecAnalysis
) -> None:
    """Emit CODEC002 for dataclass fields the module never touches."""
    for class_name, touched in sorted(analysis.touched.items()):
        schema = analysis.registry[class_name]
        if not schema.is_dataclass:
            continue
        for field_name in schema.fields:
            if field_name not in touched:
                analysis.findings.append(
                    Finding(
                        rule="CODEC002",
                        path=module.path,
                        line=analysis.first_use.get(class_name, 1),
                        column=0,
                        message=(
                            f"field '{field_name}' of {schema.module}."
                            f"{schema.name} is never read or written by this "
                            "codec module (schema drift: the durable store "
                            "would silently drop it)"
                        ),
                    )
                )


@register
class UnknownAttributeRule(Rule):
    """CODEC001: a codec touches an attribute its target class lacks.

    Fires on attribute reads/writes through bound instance names and on
    unknown constructor keyword arguments — the static shadow of the
    ``AttributeError``/``TypeError`` a decode would raise at runtime.
    """

    id = "CODEC001"
    family = "CODEC"
    summary = "codec touches an attribute the serialized class does not define"
    applies_to = None  # self-gated on StageCodec subclasses

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield CODEC001 findings for one codec module."""
        analysis = crosscheck(module, context)
        if analysis is not None:
            yield from (f for f in analysis.findings if f.rule == self.id)


@register
class UncoveredFieldRule(Rule):
    """CODEC002: a serialized dataclass has a field no codec code touches.

    The canonical drift: a field added to ``RibColumns``/``ASPolicy``/an
    artifact dataclass whose codec was not updated — round-trips silently
    lose the field until a golden test (or production) notices.
    """

    id = "CODEC002"
    family = "CODEC"
    summary = "dataclass field not covered by its codec (silent data loss)"
    applies_to = None  # self-gated on StageCodec subclasses

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield CODEC002 findings for one codec module."""
        analysis = crosscheck(module, context)
        if analysis is not None:
            yield from (f for f in analysis.findings if f.rule == self.id)
