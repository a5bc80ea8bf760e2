"""The differential fuzz harness: sample scenarios, run both engines, judge.

``run_fuzz`` draws ``count`` scenarios from each requested family (case
seeds are ``seed, seed + 1, ...`` so any failing case is reproducible with
``--seed <case seed> --count 1``), builds each sample through an isolated
:class:`~repro.session.study.Study`, runs the legacy propagation engine
next to the fast one, assembles the dataset and its analysis engine, and
then applies every oracle in :data:`repro.fuzz.oracles.ORACLES` —
collecting *all* violations per case instead of stopping at the first.

Cases are independent, so ``workers > 1`` fans them out over a process
pool with a deterministic, task-ordered merge (the report is identical for
any worker count).

CLI::

    python -m repro fuzz --family peering-density --count 25 --seed 7
    python -m repro fuzz --count 5 --workers 4 --json   # every family
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.exceptions import ExperimentError
from repro.fuzz.oracles import ORACLES, FuzzContext, OracleViolation
from repro.session.cache import StageCache, fingerprint
from repro.session.scenarios import family_names, get_family
from repro.session.study import Study
from repro.simulation.propagation import PropagationEngine


@dataclass(frozen=True)
class OracleFailure:
    """One oracle violation observed in one fuzz case.

    Attributes:
        oracle: the violated oracle's name.
        message: the violation description.
    """

    oracle: str
    message: str


@dataclass
class FuzzCaseResult:
    """The outcome of all oracles on one sampled scenario.

    Attributes:
        family: the scenario family sampled.
        seed: the case seed (``family.sample(seed)`` rebuilds the scenario).
        config_fingerprint: content hash of the sampled
            :class:`~repro.session.stages.StudyConfig` (two processes must
            agree on it — the seed-determinism regression test asserts so).
        oracles_passed: names of the oracles that held.
        failures: every oracle violation observed.
        seconds: wall-clock cost of the case.
    """

    family: str
    seed: int
    config_fingerprint: str
    oracles_passed: list[str] = field(default_factory=list)
    failures: list[OracleFailure] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """``True`` when every oracle held."""
        return not self.failures

    @property
    def reproduction(self) -> str:
        """The CLI invocation that replays exactly this case."""
        return (
            f"python -m repro fuzz --family {self.family} "
            f"--seed {self.seed} --count 1"
        )

    def to_dict(self, *, include_timing: bool = True) -> dict:
        """A JSON-ready dict with a stable key order."""
        return {
            "family": self.family,
            "seed": self.seed,
            "config_fingerprint": self.config_fingerprint,
            "ok": self.ok,
            "oracles_passed": list(self.oracles_passed),
            "failures": [
                {"oracle": failure.oracle, "message": failure.message}
                for failure in self.failures
            ],
            "seconds": round(self.seconds, 4) if include_timing else None,
        }


@dataclass
class FuzzReport:
    """The structured result of one ``run_fuzz`` call.

    Attributes:
        families: the families fuzzed, in request order.
        count: cases per family.
        base_seed: first case seed (case ``i`` uses ``base_seed + i``).
        workers: process-pool width the run used.
        cases: per-case results, in ``(family, case index)`` order.
        total_seconds: wall-clock cost of the whole run.
    """

    families: list[str]
    count: int
    base_seed: int
    workers: int = 1
    cases: list[FuzzCaseResult] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """``True`` when every case passed every oracle."""
        return all(case.ok for case in self.cases)

    @property
    def failure_count(self) -> int:
        """Total oracle violations across all cases."""
        return sum(len(case.failures) for case in self.cases)

    def to_dict(self, *, include_timing: bool = True) -> dict:
        """A JSON-ready dict; ``include_timing=False`` masks all timings."""
        return {
            "families": list(self.families),
            "count": self.count,
            "base_seed": self.base_seed,
            "ok": self.ok,
            "cases": [case.to_dict(include_timing=include_timing) for case in self.cases],
            "workers": self.workers if include_timing else None,
            "total_seconds": round(self.total_seconds, 4) if include_timing else None,
        }

    def to_json(self, *, include_timing: bool = True, indent: int | None = 2) -> str:
        """Deterministic JSON.

        Byte-identical across worker counts when ``include_timing=False``.
        """
        return json.dumps(self.to_dict(include_timing=include_timing), indent=indent)

    def render(self) -> str:
        """A human-readable per-case summary with reproduction hints."""
        lines = [
            f"fuzz: {len(self.families)} families x {self.count} cases "
            f"(seeds {self.base_seed}..{self.base_seed + self.count - 1}, "
            f"workers={self.workers})"
        ]
        for case in self.cases:
            status = "ok  " if case.ok else "FAIL"
            lines.append(
                f"{status} {case.family:20s} seed={case.seed:<6d} "
                f"{len(case.oracles_passed)}/{len(ORACLES)} oracles  "
                f"{case.seconds:.2f}s"
            )
            for failure in case.failures:
                lines.append(f"     oracle={failure.oracle}: {failure.message}")
            if not case.ok:
                lines.append(f"     reproduce: {case.reproduction}")
        failing = sum(1 for case in self.cases if not case.ok)
        lines.append(
            f"summary: {len(self.cases)} cases, {len(self.cases) - failing} ok, "
            f"{failing} failing ({self.failure_count} oracle violations), "
            f"{self.total_seconds:.1f}s"
        )
        return "\n".join(lines)


def build_context(
    family_name: str, seed: int, cache_dir: str | None = None
) -> FuzzContext:
    """Build everything the oracles need for one ``(family, seed)`` case.

    Samples the family, builds the study through a fresh
    :class:`~repro.session.cache.StageCache`, runs *both* propagation
    engines over the same topology and policy plan, and assembles the
    dataset (over the fast result) with its analysis engine.

    With ``cache_dir`` set, the study's cache is backed by the shared disk
    tier: stage artifacts another worker (or an earlier run) persisted are
    decoded instead of rebuilt, and the decoded fast-path artifacts are
    still checked differentially against a freshly executed legacy engine —
    so a warm fuzz run exercises the storage codecs as well as the engines.

    Args:
        family_name: a registered scenario family.
        seed: the case seed.
        cache_dir: optional shared artifact-store directory.

    Returns:
        The assembled :class:`~repro.fuzz.oracles.FuzzContext`.
    """
    family = get_family(family_name)
    config = family.sample(seed)
    if cache_dir is None:
        cache = StageCache()
    else:
        from repro.storage.store import DiskStore

        cache = StageCache(disk=DiskStore(cache_dir))
    study = Study(config, cache=cache)
    internet = study.topology()
    plan = study.policies()
    fast_result = study.propagation()
    legacy_result = PropagationEngine(
        internet, plan.assignment, observed_ases=plan.observed_ases
    ).run()
    return FuzzContext(
        family=family_name,
        seed=seed,
        config=config,
        dataset=study.dataset(),
        engine=study.analysis(),
        legacy_result=legacy_result,
        fast_result=fast_result,
    )


def run_case(
    family_name: str, seed: int, cache_dir: str | None = None
) -> FuzzCaseResult:
    """Run every oracle against one sampled scenario.

    Oracle violations are collected per oracle — one failing invariant
    never hides another; unexpected (non-:class:`OracleViolation`)
    exceptions propagate, since they indicate harness bugs rather than
    engine divergences.

    Args:
        family_name: a registered scenario family.
        seed: the case seed.
        cache_dir: optional shared artifact-store directory.

    Returns:
        The case's :class:`FuzzCaseResult`.
    """
    started = time.perf_counter()
    context = build_context(family_name, seed, cache_dir)
    result = FuzzCaseResult(
        family=family_name,
        seed=seed,
        config_fingerprint=fingerprint(context.config),
    )
    for oracle_name, oracle in ORACLES:
        try:
            oracle(context)
        except OracleViolation as violation:
            result.failures.append(
                OracleFailure(oracle=oracle_name, message=str(violation))
            )
        else:
            result.oracles_passed.append(oracle_name)
    result.seconds = time.perf_counter() - started
    return result


def _run_case_spec(spec: tuple[str, int, str | None]) -> FuzzCaseResult:
    """Process-pool entry point (top level, so it pickles by reference)."""
    family_name, seed, cache_dir = spec
    return run_case(family_name, seed, cache_dir)


def run_fuzz(
    families: list[str] | None = None,
    count: int = 5,
    seed: int = 7,
    workers: int = 1,
    cache_dir: str | None = None,
) -> FuzzReport:
    """Fuzz ``count`` sampled scenarios per family and judge every oracle.

    Args:
        families: scenario families to sample (default: every registered
            one, sorted by name).  Unknown names raise immediately.
        count: cases per family; case ``i`` uses seed ``seed + i``.
        seed: the base seed.
        workers: process-pool width; ``1`` runs in-process.  The merged
            report is identical for any worker count.
        cache_dir: optional shared artifact-store directory; workers read
            and populate it concurrently.

    Returns:
        The :class:`FuzzReport` over all cases.

    Raises:
        ExperimentError: on unknown families or invalid ``count``/``workers``.
    """
    selected = list(families) if families else family_names()
    for name in selected:
        get_family(name)  # validate before spending any propagation time
    if count < 1:
        raise ExperimentError(f"fuzz count must be >= 1, got {count}")
    if workers < 1:
        raise ExperimentError(f"fuzz workers must be >= 1, got {workers}")

    specs = [
        (family_name, seed + index, cache_dir)
        for family_name in selected
        for index in range(count)
    ]
    started = time.perf_counter()
    if workers == 1 or len(specs) <= 1:
        cases = [_run_case_spec(spec) for spec in specs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cases = list(pool.map(_run_case_spec, specs))
    return FuzzReport(
        families=selected,
        count=count,
        base_seed=seed,
        workers=workers,
        cases=cases,
        total_seconds=time.perf_counter() - started,
    )
