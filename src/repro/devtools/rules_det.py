"""DET: determinism-hazard rules for storage, fingerprint and stage code.

The repro's storage layer promises byte-identical artifacts across fresh
interpreters under randomized ``PYTHONHASHSEED``; the scenario families
promise identical ``family@seed`` samples across processes.  These rules
flag the constructs that silently break those promises:

* :class:`UnsortedSetIterationRule` (DET001) — iterating a ``set``-valued
  expression in an order-sensitive context without ``sorted()``;
* :class:`NondeterministicCallRule` (DET002) — ``id()``, ``hash()``,
  global-state ``random`` functions, wall-clock ``time`` reads, argless
  ``datetime.now()`` and friends in pure stage/codec/family code;
* :class:`UnsortedFilesystemIterationRule` (DET003) — iterating
  ``os.listdir``/``iterdir``/``glob`` results, whose order is
  filesystem-defined, without ``sorted()``.

All three are scoped (:data:`DET_SCOPE`) to the paths whose output feeds
fingerprints or encoded artifacts; elsewhere (benchmarks, CLI timing) the
same constructs are legitimate.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from repro.devtools.engine import (
    LintContext,
    ModuleUnderLint,
    Rule,
    dotted_name,
    iteration_sites,
    register,
    scope_statements,
    walk_scopes,
)
from repro.devtools.model import Finding

#: Paths whose code must be deterministic: everything that produces bytes
#: that end up in artifacts or fingerprints, plus the seed->config samplers.
DET_SCOPE = (
    "src/repro/storage/*.py",
    "src/repro/session/cache.py",
    "src/repro/session/stages.py",
    "src/repro/fuzz/families.py",
    "src/repro/analysis/index.py",
    "src/repro/simulation/rib.py",
)

#: ``set``-returning method names (on an already set-valued receiver).
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: ``random`` module functions that use the hidden global generator.
_RANDOM_GLOBALS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: ``time`` module functions that read a clock.
_TIME_FUNCS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
    }
)

#: Filesystem-iteration producers whose order is platform-defined.
_FS_METHODS = frozenset({"iterdir", "glob", "rglob"})
_FS_FUNCTIONS = frozenset({"os.listdir", "os.scandir", "os.walk"})


def _set_valued(node: ast.expr, set_names: frozenset[str]) -> bool:
    """``True`` when the expression statically looks ``set``-valued.

    Args:
        node: the expression to classify.
        set_names: local names known (flow-insensitively) to hold sets.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.IfExp):
        return _set_valued(node.body, set_names) or _set_valued(node.orelse, set_names)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _set_valued(node.left, set_names)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and _set_valued(node.func.value, set_names)
        ):
            return True
    return False


def _scope_names(
    body: list[ast.stmt], classify: Callable[[ast.expr], bool]
) -> frozenset[str]:
    """Names assigned only matching values within one scope.

    A name qualifies when at least one of its assignments matches
    ``classify`` and none of them definitely does not (flow-insensitive:
    good enough for lint, and suppressible when wrong).

    Args:
        body: the scope's statement list.
        classify: predicate over assigned value expressions.

    Returns:
        The qualifying names.
    """
    positive: set[str] = set()
    negative: set[str] = set()
    for node in scope_statements(body):
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target] if isinstance(node.target, ast.Name) else []
            value = node.value
        else:
            continue
        bucket = positive if classify(value) else negative
        for target in targets:
            bucket.add(target.id)
    return frozenset(positive - negative)


@register
class UnsortedSetIterationRule(Rule):
    """DET001: iteration over a ``set``-valued expression without ``sorted()``.

    Set iteration order depends on element hashes (and, for strings, on
    ``PYTHONHASHSEED``); anything order-sensitive built from it — a list, a
    dict's insertion order, encoded bytes — varies across interpreters.
    Wrap the expression in ``sorted()`` or suppress with an insertion-order
    rationale.
    """

    id = "DET001"
    family = "DET"
    summary = "iteration over a set-valued expression needs sorted()"
    applies_to = DET_SCOPE

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield one finding per order-sensitive iteration of a set value."""
        for _scope, body in walk_scopes(module.tree):
            names = _scope_names(body, lambda value: _set_valued(value, frozenset()))
            for expression, label in iteration_sites(body):
                if _set_valued(expression, names):
                    yield module.finding(
                        self,
                        expression,
                        f"{label} iterates set-valued expression "
                        f"'{ast.unparse(expression)}'; wrap in sorted() or "
                        "justify the ordering with a noqa rationale",
                    )


@register
class NondeterministicCallRule(Rule):
    """DET002: nondeterministic builtins/modules in pure deterministic code.

    ``id()`` and ``hash()`` vary per process (and per ``PYTHONHASHSEED``),
    the global ``random`` functions and clock reads vary per call, and
    ``datetime.now()`` stamps wall-clock time into what must be a pure
    function of the configuration.  Seeded ``random.Random(...)`` instances
    remain allowed — they are the deterministic alternative.
    """

    id = "DET002"
    family = "DET"
    summary = "id()/hash()/global random/clock reads are nondeterministic"
    applies_to = DET_SCOPE

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield one finding per nondeterministic call or banned import."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                message = self._call_message(node)
                if message is not None:
                    yield module.finding(self, node, message)
            elif isinstance(node, ast.ImportFrom) and node.module in ("random", "time"):
                banned = _RANDOM_GLOBALS if node.module == "random" else _TIME_FUNCS
                for alias in node.names:
                    if alias.name in banned:
                        yield module.finding(
                            self,
                            node,
                            f"from {node.module} import {alias.name} pulls a "
                            "nondeterministic function into deterministic code",
                        )

    @staticmethod
    def _call_message(node: ast.Call) -> str | None:
        """The violation message for one call, or ``None`` when clean."""
        if isinstance(node.func, ast.Name) and node.func.id in ("id", "hash"):
            return (
                f"call to {node.func.id}() is process-dependent; derive a "
                "stable key from the value instead"
            )
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        head, _, tail = dotted.rpartition(".")
        if head == "random" and tail in _RANDOM_GLOBALS:
            return (
                f"{dotted}() uses the hidden global generator; use a seeded "
                "random.Random instance"
            )
        if head == "time" and tail in _TIME_FUNCS:
            return f"{dotted}() reads a clock inside deterministic code"
        if dotted == "os.urandom" or (head == "uuid" and tail in ("uuid1", "uuid4")):
            return f"{dotted}() is nondeterministic by design"
        parts = dotted.split(".")
        if tail in ("utcnow", "today") and any(p in ("datetime", "date") for p in parts):
            return f"{dotted}() stamps wall-clock time into deterministic code"
        if (
            tail == "now"
            and not node.args
            and not node.keywords
            and any(p in ("datetime", "date") for p in parts)
        ):
            return f"argless {dotted}() stamps wall-clock time into deterministic code"
        return None


@register
class UnsortedFilesystemIterationRule(Rule):
    """DET003: filesystem-ordered iteration without ``sorted()``.

    ``os.listdir``, ``Path.iterdir`` and ``glob`` yield entries in
    filesystem order, which differs across machines and over time.  Any
    order-sensitive consumer in the storage layer must sort first.
    """

    id = "DET003"
    family = "DET"
    summary = "directory-listing iteration order is filesystem-defined"
    applies_to = DET_SCOPE

    def check(self, module: ModuleUnderLint, context: LintContext) -> Iterator[Finding]:
        """Yield one finding per order-sensitive directory iteration."""
        for _scope, body in walk_scopes(module.tree):
            names = _scope_names(body, self._fs_valued)
            for expression, label in iteration_sites(body):
                if self._fs_valued(expression) or (
                    isinstance(expression, ast.Name) and expression.id in names
                ):
                    yield module.finding(
                        self,
                        expression,
                        f"{label} iterates directory listing "
                        f"'{ast.unparse(expression)}' in filesystem order; "
                        "wrap in sorted() or justify with a noqa rationale",
                    )

    @staticmethod
    def _fs_valued(node: ast.expr) -> bool:
        """``True`` for calls that produce filesystem-ordered listings."""
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Attribute) and node.func.attr in _FS_METHODS:
            return True
        dotted = dotted_name(node.func)
        return dotted in _FS_FUNCTIONS
