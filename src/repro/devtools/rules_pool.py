"""POOL: process-pool safety rules around ``ProcessPoolExecutor``.

Work shipped to a worker process is pickled; lambdas, closures and bound
methods are not picklable (or drag a surprising amount of state along),
and module-level mutable state read inside a worker is a *per-process
copy* — mutations made by the parent after fork/spawn, or by other
workers, are invisible.  Both failure modes surface only at runtime, in
the worker, with a traceback pointing nowhere near the cause.

Rules:

* :class:`UnpicklableSubmitRule` (POOL001) — a lambda, locally nested
  function or bound method submitted to a process pool;
* :class:`WorkerModuleStateRule` (POOL002) — a worker entry point reading
  module-level mutable state (mutable literals, or globals reassigned via
  ``global``).

Both self-gate on ``ProcessPoolExecutor`` usage, so they cover
``session/sweep.py`` and ``fuzz/harness.py`` today and any future pool
automatically.  Thread pools are exempt: they share memory and pickle
nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.engine import (
    LintContext,
    ModuleUnderLint,
    Rule,
    dotted_name,
    register,
    scope_statements,
    walk_scopes,
)
from repro.devtools.model import Finding

#: Executor methods that pickle their callable into worker processes.
_SUBMIT_METHODS = frozenset({"submit", "map"})

#: Module-level calls producing mutable containers.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "deque", "Counter"}
)


def _uses_process_pool(tree: ast.Module) -> bool:
    """``True`` when the module references ``ProcessPoolExecutor``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            return True
    return False


def _is_pool_constructor(node: ast.expr) -> bool:
    """``True`` for ``ProcessPoolExecutor(...)`` calls (dotted or plain)."""
    if not isinstance(node, ast.Call):
        return False
    dotted = dotted_name(node.func)
    return dotted is not None and dotted.split(".")[-1] == "ProcessPoolExecutor"


def _executor_names(body: list[ast.stmt]) -> set[str]:
    """Names bound to a process pool within one scope."""
    names: set[str] = set()
    for node in scope_statements(body):
        if isinstance(node, ast.Assign) and _is_pool_constructor(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _is_pool_constructor(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
    return names


def _submitted_callables(
    body: list[ast.stmt], executors: set[str]
) -> Iterator[tuple[ast.expr, str]]:
    """``(callable expression, method name)`` for every pool submission."""
    for node in scope_statements(body):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SUBMIT_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in executors
            and node.args
        ):
            yield _unwrap_partial(node.args[0]), node.func.attr


def _unwrap_partial(node: ast.expr) -> ast.expr:
    """The innermost callable of ``functools.partial(...)`` wrappings."""
    while (
        isinstance(node, ast.Call)
        and (dotted_name(node.func) or "").split(".")[-1] == "partial"
        and node.args
    ):
        node = node.args[0]
    return node


def _imported_module_names(tree: ast.Module) -> set[str]:
    """Top-level names that refer to imported modules (``import x as y``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


@register
class UnpicklableSubmitRule(Rule):
    """POOL001: lambdas, closures or bound methods handed to a process pool.

    ``pickle`` refuses lambdas and functions defined inside another
    function, and a bound method pickles its whole instance.  Only
    module-level functions are safe task entry points.
    """

    id = "POOL001"
    family = "POOL"
    summary = "process pools need module-level functions, not closures"
    applies_to = None  # self-gated on ProcessPoolExecutor usage

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield one finding per unpicklable pool submission."""
        if not _uses_process_pool(module.tree):
            return
        imported_modules = _imported_module_names(module.tree)
        for scope, body in walk_scopes(module.tree):
            nested = {
                n.name
                for n in scope_statements(body)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            } if not isinstance(scope, ast.Module) else set()
            executors = _executor_names(body)
            for callable_node, method in _submitted_callables(body, executors):
                message = self._violation(callable_node, method, nested, imported_modules)
                if message is not None:
                    yield module.finding(self, callable_node, message)

    @staticmethod
    def _violation(
        node: ast.expr, method: str, nested: set[str], imported_modules: set[str]
    ) -> str | None:
        """The violation message for one submitted callable, or ``None``."""
        if isinstance(node, ast.Lambda):
            return f"lambda submitted to pool.{method}() cannot be pickled"
        if isinstance(node, ast.Name) and node.id in nested:
            return (
                f"locally defined function '{node.id}' submitted to "
                f"pool.{method}() cannot be pickled; move it to module level"
            )
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in imported_modules:
                return None  # module.function: picklable by reference
            return (
                f"bound method '{ast.unparse(node)}' submitted to "
                f"pool.{method}() pickles its whole instance into every "
                "worker; use a module-level function"
            )
        return None


@register
class WorkerModuleStateRule(Rule):
    """POOL002: worker entry points reading module-level mutable state.

    Each worker process gets its own copy of module globals at import
    time; reads inside a worker see neither parent mutations made after
    the pool spawned nor other workers' writes.  Pass state through task
    arguments or an ``initializer`` instead — and when the initializer
    pattern *is* the design, suppress with the rationale spelled out.
    """

    id = "POOL002"
    family = "POOL"
    summary = "workers see stale per-process copies of module mutable state"
    applies_to = None  # self-gated on ProcessPoolExecutor usage

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield one finding per mutable-global read inside a worker."""
        if not _uses_process_pool(module.tree):
            return
        mutable = self._module_mutable_names(module.tree)
        if not mutable:
            return
        workers = self._worker_functions(module.tree)
        for function in workers:
            seen: set[tuple[str, int]] = set()
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutable
                    and (node.id, node.lineno) not in seen
                ):
                    seen.add((node.id, node.lineno))
                    yield module.finding(
                        self,
                        node,
                        f"worker '{function.name}' reads module-level mutable "
                        f"state '{node.id}'; each process sees its own copy — "
                        "pass it via task arguments or an initializer",
                    )

    @staticmethod
    def _module_mutable_names(tree: ast.Module) -> set[str]:
        """Module-level names holding mutable containers or reassigned globals."""
        mutable: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
                value = node.value
            else:
                continue
            if value is not None and WorkerModuleStateRule._is_mutable_literal(value):
                mutable.update(targets)
        # Globals written from function bodies (the initializer pattern).
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared: set[str] = set()
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Global):
                        declared.update(inner.names)
                if declared:
                    for inner in ast.walk(node):
                        if isinstance(inner, ast.Assign):
                            mutable.update(
                                t.id
                                for t in inner.targets
                                if isinstance(t, ast.Name) and t.id in declared
                            )
        return mutable

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        """``True`` for list/dict/set displays, comprehensions and factories."""
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            return (
                dotted is not None and dotted.split(".")[-1] in _MUTABLE_FACTORIES
            )
        return False

    @staticmethod
    def _worker_functions(tree: ast.Module) -> list[ast.FunctionDef]:
        """Module-level functions that run inside worker processes.

        A function is a worker when its name is submitted/mapped to a pool
        anywhere in the module, or passed as a pool's ``initializer``.
        """
        worker_names: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_METHODS
                and node.args
            ):
                target = _unwrap_partial(node.args[0])
                if isinstance(target, ast.Name):
                    worker_names.add(target.id)
            if _is_pool_constructor(node):
                for keyword in node.keywords:
                    if keyword.arg == "initializer" and isinstance(
                        keyword.value, ast.Name
                    ):
                        worker_names.add(keyword.value.id)
        return [
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in worker_names
        ]
