"""Development-time static analysis for the repro codebase.

``repro.devtools`` hosts *repro lint* (``python -m repro lint``): a
visitor-based AST rule engine with four rule families guarding the
invariants the dynamic test suites can only catch after the fact:

* **DET** — determinism hazards in storage/fingerprint/stage code
  (:mod:`repro.devtools.rules_det`);
* **CODEC** — schema drift between :mod:`repro.storage.codecs` and the
  dataclasses it serializes (:mod:`repro.devtools.rules_codec`);
* **POOL** — process-pool safety around ``ProcessPoolExecutor``
  (:mod:`repro.devtools.rules_pool`);
* **DEAD** — public definitions in ``src/`` that only tests reach
  (:mod:`repro.devtools.rules_dead`).

Findings can be suppressed inline (``repro: noqa[RULE] -- rationale``
after a hash)
or recorded in a committed baseline file that CI ratchets to
zero-or-better.  See ``docs/linting.md`` for the full rule catalogue.
"""

from repro.devtools import rules_codec, rules_dead, rules_det, rules_pool  # noqa: F401  (rule registration)
from repro.devtools.baseline import Baseline
from repro.devtools.engine import LintContext, ModuleUnderLint, Rule, all_rules, rule_ids
from repro.devtools.lint import lint_paths, run_lint
from repro.devtools.model import Finding, LintReport

__all__ = [
    "Baseline",
    "Finding",
    "LintContext",
    "LintReport",
    "ModuleUnderLint",
    "Rule",
    "all_rules",
    "lint_paths",
    "rule_ids",
    "run_lint",
]
