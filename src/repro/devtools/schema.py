"""Static class-schema resolution for the CODEC cross-check rules.

The CODEC rules need to know, *without importing anything*, which fields a
dataclass declares and which attribute names a class exposes.  This module
extracts that from source ASTs:

* :func:`collect_schemas` — every class defined in one parsed module,
  as :class:`ClassSchema` records;
* dataclasses contribute their annotated fields (``ClassVar`` annotations
  excluded) plus methods/properties;
* plain classes contribute ``self.X`` assignments (union over all their
  methods — a factory classmethod may bypass ``__init__`` and a builder
  method may add attributes, so restricting to ``__init__`` would miss
  real schema) and their ``__init__`` parameters as the constructor
  signature.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

#: Decorator names recognised as ``dataclasses.dataclass``.
_DATACLASS_NAMES = frozenset({"dataclass"})


@dataclass(frozen=True)
class ClassSchema:
    """The statically known shape of one class.

    Attributes:
        name: the class name.
        module: dotted module name (or file stem) for messages.
        is_dataclass: whether the class is ``@dataclass``-decorated.
        fields: declared dataclass fields, in declaration order (for plain
            classes: every ``self.X`` assignment target, sorted).
        init_params: constructor parameter names, in order (dataclass:
            the fields; plain class: ``__init__`` parameters minus ``self``).
        members: every attribute name an instance is known to expose —
            fields, methods, properties and class-level assignments.
    """

    name: str
    module: str
    is_dataclass: bool
    fields: tuple[str, ...]
    init_params: tuple[str, ...]
    members: frozenset[str]

    def with_extra_field(self, field_name: str) -> "ClassSchema":
        """A copy with one extra declared field (test hook for drift checks)."""
        return ClassSchema(
            name=self.name,
            module=self.module,
            is_dataclass=self.is_dataclass,
            fields=(*self.fields, field_name),
            init_params=(*self.init_params, field_name),
            members=frozenset({*self.members, field_name}),
        )


def _is_dataclass_decorator(node: ast.expr) -> bool:
    """``True`` for ``@dataclass``, ``@dataclass(...)`` and dotted forms."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in _DATACLASS_NAMES
    return isinstance(node, ast.Name) and node.id in _DATACLASS_NAMES


def _annotation_is_classvar(annotation: ast.expr) -> bool:
    """``True`` when an annotation is a ``ClassVar[...]`` declaration."""
    return "ClassVar" in ast.unparse(annotation)


def collect_schemas(tree: ast.Module, module_name: str) -> dict[str, ClassSchema]:
    """Every class defined at the top level of one parsed module.

    Args:
        tree: the module's AST.
        module_name: dotted name used in messages.

    Returns:
        Schemas keyed by class name.
    """
    schemas: dict[str, ClassSchema] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            schemas[node.name] = _class_schema(node, module_name)
    return schemas


def _class_schema(node: ast.ClassDef, module_name: str) -> ClassSchema:
    """The schema of one class definition."""
    is_dataclass = any(_is_dataclass_decorator(d) for d in node.decorator_list)
    members: set[str] = set()
    fields: list[str] = []
    init_params: tuple[str, ...] = ()
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            members.add(statement.target.id)
            if is_dataclass and not _annotation_is_classvar(statement.annotation):
                fields.append(statement.target.id)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    members.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    members.update(
                        element.id
                        for element in target.elts
                        if isinstance(element, ast.Name)
                    )
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(statement.name)
            if statement.name == "__init__":
                init_params = _parameter_names(statement)
    self_attrs = _self_assignments(node)
    members.update(self_attrs)
    if is_dataclass:
        init_params = tuple(fields)
    else:
        fields = sorted(self_attrs)
    # ``__slots__`` declarations also name instance attributes.
    members.update(_slots_names(node))
    return ClassSchema(
        name=node.name,
        module=module_name,
        is_dataclass=is_dataclass,
        fields=tuple(fields),
        init_params=init_params,
        members=frozenset(members),
    )


def _parameter_names(function: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """Positional/keyword parameter names of a function, minus ``self``."""
    arguments = function.args
    names = [arg.arg for arg in (*arguments.posonlyargs, *arguments.args)]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(arg.arg for arg in arguments.kwonlyargs)
    return tuple(names)


def _self_assignments(node: ast.ClassDef) -> set[str]:
    """Every ``self.X = ...`` target across the class's methods."""
    attrs: set[str] = set()
    for statement in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        elif isinstance(statement, ast.AugAssign):
            targets = [statement.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


def _slots_names(node: ast.ClassDef) -> set[str]:
    """Attribute names declared via a literal ``__slots__`` tuple/list."""
    for statement in node.body:
        if (
            isinstance(statement, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in statement.targets
            )
            and isinstance(statement.value, (ast.Tuple, ast.List))
        ):
            return {
                element.value
                for element in statement.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return set()
