"""Resumable, fault-tolerant cross-process sweeps over the artifact store.

The paper's workload is sweep-shaped: the same inference and
characterization analyses re-run across many vantage/policy configurations.
:func:`run_sweep` fans a list of scenario specs (preset names or
``family@seed`` samples) out over worker processes, with every worker
attached to one shared disk tier (``--cache-dir``):

* **stage reuse** — workers share pipeline prefixes through the
  content-addressed store instead of recomputing them: the first case to
  need a topology persists it, every later case (in any process, in any
  later sweep) decodes it.
* **report reuse** — each case's timing-masked suite JSON is itself stored
  under the ``report`` tier, addressed by the full upstream key chain plus
  the experiment list.  A warm-cache sweep re-derives the keys (pure
  fingerprinting, no builds) and serves every case from disk, byte-identical
  to the cold run.
* **resume** — per-case completion is recorded in ``manifest.json`` inside
  the sweep directory, rewritten atomically after every case.  An
  interrupted sweep (crash, SIGKILL, ``fail_after`` test hook) restarts
  with the same arguments, skips every recorded case, and completes the
  remainder.  A manifest that cannot be honoured (other version, other
  experiment set) is reported — stderr note plus
  :attr:`SweepReport.manifest_note` — never silently discarded.
* **fault tolerance** (see ``docs/robustness.md``) — failed case attempts
  are retried with exponential backoff and deterministic jitter
  (``retries`` attempts); a dead worker process (``BrokenProcessPool``)
  respawns the executor and the sweep keeps draining — only a case that
  breaks the pool while it is the single case in flight pays an attempt
  (cases in flight together re-run one at a time); a case that exhausts its
  attempts is *quarantined* (status ``"quarantined"``, recorded in the
  manifest so a resume does not retry poison) instead of aborting the sweep.
  Deterministic configuration errors (:class:`~repro.exceptions.ReproError`)
  are never retried — they fail the case immediately.  Error messages are
  normalized (paths, PIDs, addresses) so timing-masked sweep JSON stays
  byte-identical across runs and machines.

CLI::

    python -m repro sweep multihoming@0 multihoming@1 --cache-dir .repro-cache
    python -m repro sweep --family peering-density --count 10 --workers 4 \\
        --cache-dir /shared/cache --retries 3 --case-timeout 300
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import re
import sys
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.exceptions import ExperimentError, ReproError
from repro.faults.plan import FaultPlan
from repro.faults.runtime import PLAN_ENV, activate, fault_point, mark_worker, reset
from repro.session.cache import StageCache, fingerprint
from repro.session.scenarios import get_family, resolve_scenario
from repro.session.stages import Stage
from repro.session.suite import run_suite
from repro.storage.store import DiskStore

#: Manifest schema version (bumped on incompatible manifest changes).
MANIFEST_VERSION = 1

#: Environment variable making the orchestrator abort after N completed
#: cases — a deterministic stand-in for "the process was killed mid-sweep",
#: used by the resume smoke tests and CI.
FAIL_AFTER_ENV = "REPRO_SWEEP_FAIL_AFTER"

#: Default retry budget: a case gets ``1 + DEFAULT_RETRIES`` attempts
#: before it is quarantined.
DEFAULT_RETRIES = 2

#: Default first-retry backoff in seconds (doubled per attempt, jittered).
DEFAULT_RETRY_DELAY = 0.05


class SweepInterrupted(ExperimentError):
    """The sweep stopped before finishing; the manifest records progress."""


@dataclass
class SweepCase:
    """Outcome of one sweep case.

    Attributes:
        spec: the scenario spec (preset name or ``family@seed``).
        status: ``"completed"`` (experiments ran), ``"cached"`` (report
            served from the disk tier), ``"resumed"`` (skipped — already in
            the manifest), ``"failed"`` (deterministic error, not retried)
            or ``"quarantined"`` (crashed/timed out on every attempt).
        seconds: wall-clock cost of the case in this run (0 when resumed).
        report_path: path of the case's suite-report JSON file.
        error: the normalized failure message for failed/quarantined cases.
        attempts: how many attempts this run spent on the case (0 when the
            outcome came from the manifest).
        cache_stats: per-stage hit/disk-hit/miss counters of the case's
            cache, plus a ``"store"`` entry with the disk tier's
            degradation/quarantine health (absent for resumed cases).
    """

    spec: str
    status: str
    seconds: float = 0.0
    report_path: str | None = None
    error: str | None = None
    attempts: int = 0
    cache_stats: dict | None = None

    def to_dict(self, *, include_timing: bool = True) -> dict:
        """A JSON-ready dict with a stable key order."""
        return {
            "spec": self.spec,
            "status": self.status,
            "seconds": round(self.seconds, 4) if include_timing else None,
            "report": self.report_path,
            "error": self.error,
            "attempts": self.attempts,
            "cache_stats": self.cache_stats,
        }


#: Every case status, in summary order.
_STATUSES = ("completed", "cached", "resumed", "failed", "quarantined")


@dataclass
class SweepReport:
    """The structured result of one :func:`run_sweep` call.

    Attributes:
        cases: per-case outcomes, in spec order.
        cache_dir: the shared disk tier directory.
        sweep_dir: the sweep's manifest/report directory.
        experiments: experiment ids the sweep ran (``None`` means all).
        workers: process-pool width.
        total_seconds: wall-clock cost of the whole call.
        manifest_note: why an existing manifest was ignored (version or
            experiment-set mismatch), or ``None`` when it was honoured.
    """

    cases: list[SweepCase] = field(default_factory=list)
    cache_dir: str = ""
    sweep_dir: str = ""
    experiments: list[str] | None = None
    workers: int = 1
    total_seconds: float = 0.0
    manifest_note: str | None = None

    @property
    def ok(self) -> bool:
        """``True`` when no case failed or was quarantined."""
        return all(case.status not in ("failed", "quarantined") for case in self.cases)

    def count(self, status: str) -> int:
        """How many cases finished with the given status."""
        return sum(1 for case in self.cases if case.status == status)

    def to_dict(self, *, include_timing: bool = True) -> dict:
        """A JSON-ready dict; ``include_timing=False`` masks all timings."""
        return {
            "cache_dir": self.cache_dir,
            "sweep_dir": self.sweep_dir,
            "experiments": self.experiments,
            "ok": self.ok,
            "manifest_note": self.manifest_note,
            "counts": {status: self.count(status) for status in _STATUSES},
            "cases": [
                case.to_dict(include_timing=include_timing) for case in self.cases
            ],
            "workers": self.workers if include_timing else None,
            "total_seconds": round(self.total_seconds, 4) if include_timing else None,
        }

    def to_json(self, *, include_timing: bool = True, indent: int | None = 2) -> str:
        """Deterministic JSON (byte-identical when timings are masked)."""
        return json.dumps(self.to_dict(include_timing=include_timing), indent=indent)

    def render(self) -> str:
        """A human-readable per-case summary."""
        lines = [
            f"sweep: {len(self.cases)} cases (workers={self.workers}, "
            f"cache={self.cache_dir})"
        ]
        if self.manifest_note:
            lines.append(f"note: {self.manifest_note}")
        markers = {
            "completed": "run ",
            "cached": "hit ",
            "resumed": "skip",
            "quarantined": "QUAR",
        }
        for case in self.cases:
            marker = markers.get(case.status, "FAIL")
            detail = case.error if case.error else f"{case.seconds:.2f}s"
            lines.append(f"{marker} {case.spec:28s} {detail}")
        lines.append(
            f"summary: {self.count('completed')} computed, "
            f"{self.count('cached')} from cache, {self.count('resumed')} resumed, "
            f"{self.count('failed')} failed, "
            f"{self.count('quarantined')} quarantined, {self.total_seconds:.1f}s"
        )
        return "\n".join(lines)


def expand_case_specs(
    cases: list[str] | None,
    families: list[str] | None = None,
    count: int = 5,
    seed: int = 0,
) -> list[str]:
    """The sweep's case list: explicit specs plus family expansions.

    Args:
        cases: explicit scenario specs (presets or ``family@seed``).
        families: family names expanded to ``family@seed .. family@seed+count-1``.
        count: samples per expanded family.
        seed: first sample seed of each expanded family.

    Returns:
        The combined, de-duplicated spec list in request order.

    Raises:
        ExperimentError: on unknown families or an empty case list.
    """
    specs: list[str] = list(cases or [])
    for family in families or []:
        get_family(family)  # validate before spending any build time
        specs.extend(f"{family}@{seed + index}" for index in range(count))
    deduplicated = list(dict.fromkeys(specs))
    if not deduplicated:
        raise ExperimentError(
            "sweep needs at least one case: pass scenario specs or --family"
        )
    return deduplicated


def report_key(study, experiment_ids: list[str] | None, scenario: str) -> str:
    """The content address of one case's suite report.

    Covers every stage key of the study (hence the whole configuration),
    the experiment list and the scenario label
    (recorded inside the report JSON), so any change that could alter the
    report bytes moves the key.
    """
    return fingerprint(
        "suite-report",
        *(study.stage_key(stage) for stage in Stage),
        tuple(experiment_ids) if experiment_ids else "all",
        scenario,
    )


#: Hex memory addresses (``<object at 0x7f...>``).
_HEX_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")

#: Process ids in the common spellings (``pid 123``, ``pid=123``, ``PID: 1``).
_PID = re.compile(r"\b(pid|PID)[=: ]\s*\d+")

#: ``process 12345`` phrasings (e.g. multiprocessing tracebacks).
_PROCESS_ID = re.compile(r"\b([Pp]rocess )\d+")


def normalize_error(message: str, *roots: tuple[str, object]) -> str:
    """A machine-independent rendering of a case failure message.

    Strips the nondeterministic content that would otherwise leak into the
    timing-masked sweep JSON — absolute directory paths (replaced by the
    given placeholders), hex object addresses and process ids — so two
    sweeps failing the same way on different machines report byte-identical
    errors.

    Args:
        message: the raw exception message.
        roots: ``(placeholder, path)`` pairs; every occurrence of
            ``str(path)`` is replaced by the placeholder.
    """
    for placeholder, root in roots:
        if root:
            message = message.replace(str(root), placeholder)
    message = _HEX_ADDRESS.sub("0x<addr>", message)
    message = _PID.sub(r"\1=<pid>", message)
    message = _PROCESS_ID.sub(r"\1<pid>", message)
    return message


def _backoff_delay(base: float, spec: str, attempt: int) -> float:
    """Exponential backoff with deterministic per-(case, attempt) jitter.

    The jitter draw is seeded from the case spec and attempt number —
    retries de-synchronize across workers without global random state, and
    the schedule is reproducible run-to-run.
    """
    jitter = random.Random(f"{spec}:{attempt}").random()
    return base * (2 ** (attempt - 1)) * (0.5 + jitter)


def _case_slug(spec: str) -> str:
    """A filesystem-safe, collision-free file stem for one case spec."""
    clean = re.sub(r"[^A-Za-z0-9_.-]+", "-", spec).strip("-") or "case"
    return f"{clean}-{fingerprint(spec)[:8]}"


def _run_sweep_case(task: tuple[str, tuple[str, ...] | None, str]) -> tuple:
    """Process-pool entry point: run (or load) one sweep case.

    Args:
        task: ``(spec, experiment ids or None, cache directory)``.

    Returns:
        ``(spec, report JSON, seconds, cache stats, status)`` where status
        is ``"cached"`` when the report came from the disk tier.
    """
    spec, experiments, cache_dir = task
    fault_point("worker-kill", spec)
    started = time.perf_counter()
    cache = StageCache(disk=DiskStore(cache_dir))
    study = resolve_scenario(spec).study(cache=cache)
    ids = list(experiments) if experiments else None

    def build() -> str:
        return run_suite(study, ids, scenario=spec).to_json(include_timing=False)

    json_text = cache.get_or_build(
        "report",
        report_key(study, ids, spec),
        build,
        encode=lambda text: text.encode("utf-8"),
        decode=lambda data: data.decode("utf-8"),
    )
    status = "cached" if cache.stats_for("report").disk_hits else "completed"
    stats = cache.stats_dict()
    health = cache.disk_health()
    if health is not None:
        stats["store"] = health
    return (
        spec,
        json_text,
        time.perf_counter() - started,
        stats,
        status,
    )


class _Manifest:
    """The sweep's crash-safe completion record."""

    def __init__(self, path: pathlib.Path, experiments: list[str] | None) -> None:
        self.path = path
        self.experiments = list(experiments) if experiments else None
        self.cases: dict[str, dict] = {}
        self.stale_reason: str | None = None

    def load(self) -> None:
        """Read an existing manifest; an incompatible one is ignored *and*
        the reason is surfaced via :attr:`stale_reason` (a resume with
        different arguments must not masquerade as a fresh sweep)."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return  # fresh sweep: nothing to resume, nothing to report
        except OSError as error:
            self.stale_reason = f"manifest unreadable ({error.__class__.__name__})"
            return
        try:
            data = json.loads(text)
        except ValueError:
            self.stale_reason = "manifest is not valid JSON"
            return
        if not isinstance(data, dict):
            self.stale_reason = "manifest is not a JSON object"
            return
        if data.get("version") != MANIFEST_VERSION:
            self.stale_reason = (
                f"manifest version {data.get('version')!r} != {MANIFEST_VERSION}"
            )
            return
        if data.get("experiments") != self.experiments:
            self.stale_reason = (
                f"manifest was written for experiments {data.get('experiments')!r}, "
                f"this sweep runs {self.experiments!r}"
            )
            return
        cases = data.get("cases")
        if isinstance(cases, dict):
            self.cases = cases

    def record(self, spec: str, entry: dict) -> None:
        """Record one case and atomically rewrite the manifest file."""
        self.cases[spec] = entry
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "version": MANIFEST_VERSION,
                "experiments": self.experiments,
                "cases": self.cases,
            },
            indent=2,
        )
        fd, tmp_name = tempfile.mkstemp(
            prefix=".manifest.", suffix=".tmp", dir=self.path.parent
        )
        with os.fdopen(fd, "w") as handle:
            handle.write(payload + "\n")
        os.replace(tmp_name, self.path)

    def completed(self, spec: str, sweep_dir: pathlib.Path) -> str | None:
        """The report path of an already-completed case, when still valid."""
        entry = self.cases.get(spec)
        if not isinstance(entry, dict) or entry.get("status") != "done":
            return None
        report = entry.get("report")
        if not isinstance(report, str) or not (sweep_dir / report).is_file():
            return None
        return report

    def quarantined(self, spec: str) -> str | None:
        """The recorded error of a quarantined case, or ``None``.

        Quarantine persists across resumes: a case that crashed on every
        attempt is poison and must not be re-run just because the sweep
        restarted (``--no-resume`` clears it).
        """
        entry = self.cases.get(spec)
        if not isinstance(entry, dict) or entry.get("status") != "quarantined":
            return None
        error = entry.get("error")
        return error if isinstance(error, str) else "quarantined"


def run_sweep(
    specs: list[str],
    *,
    cache_dir: str | os.PathLike,
    sweep_dir: str | os.PathLike | None = None,
    experiments: list[str] | None = None,
    workers: int = 1,
    resume: bool = True,
    fail_after: int | None = None,
    retries: int = DEFAULT_RETRIES,
    retry_delay: float = DEFAULT_RETRY_DELAY,
    case_timeout: float | None = None,
    fault_plan: FaultPlan | str | None = None,
) -> SweepReport:
    """Run a list of scenario cases over one shared artifact store.

    Args:
        specs: scenario specs (presets or ``family@seed``), e.g. from
            :func:`expand_case_specs`.
        cache_dir: the shared disk tier directory (created on demand).
        sweep_dir: where the manifest and per-case reports live; defaults
            to ``<cache_dir>/sweeps/<digest>`` with the digest derived from
            the case list and experiment set, so re-running the same sweep
            resumes it.
        experiments: experiment ids each case runs (``None`` means all).
        workers: process-pool width; ``1`` runs in-process.
        resume: honour an existing manifest (skip completed cases).
        fail_after: abort (``SweepInterrupted``) after this many cases
            complete in this run — deterministic crash injection for the
            resume tests; also settable via :data:`FAIL_AFTER_ENV`.
        retries: extra attempts a crashing case gets (with exponential
            backoff) before it is quarantined; deterministic errors
            (:class:`~repro.exceptions.ReproError`) are never retried.
        retry_delay: base backoff before the first retry, in seconds
            (doubled per attempt, with deterministic jitter).
        case_timeout: per-attempt wall-clock budget in seconds (pool mode
            only); an attempt past its deadline is abandoned, counted as a
            failure and retried.
        fault_plan: a :class:`~repro.faults.plan.FaultPlan` (or inline
            JSON / file path) activated for the sweep and exported to the
            workers — deterministic chaos for the robustness tests.

    Returns:
        The :class:`SweepReport`; per-case JSON files live under
        ``<sweep_dir>/cases/``.

    Raises:
        ExperimentError: on unknown scenarios/families or bad ``workers``.
        SweepInterrupted: when ``fail_after`` fires; completed cases are
            already persisted in the manifest.
    """
    if workers < 1:
        raise ExperimentError(f"sweep workers must be >= 1, got {workers}")
    if retries < 0:
        raise ExperimentError(f"sweep retries must be >= 0, got {retries}")
    if case_timeout is not None and case_timeout <= 0:
        raise ExperimentError(f"case timeout must be > 0 seconds, got {case_timeout}")
    for spec in specs:
        resolve_scenario(spec)  # validate every case before starting work
    if fail_after is None:
        raw = os.environ.get(FAIL_AFTER_ENV, "")
        fail_after = int(raw) if raw.isdigit() else None

    plan = FaultPlan.load(fault_plan) if isinstance(fault_plan, str) else fault_plan
    previous_plan_env = os.environ.get(PLAN_ENV)
    if plan is not None:
        activate(plan)  # exported to PLAN_ENV so pool workers inherit it
    try:
        return _run_sweep(
            specs,
            cache_dir=cache_dir,
            sweep_dir=sweep_dir,
            experiments=experiments,
            workers=workers,
            resume=resume,
            fail_after=fail_after,
            retries=retries,
            retry_delay=retry_delay,
            case_timeout=case_timeout,
        )
    finally:
        if plan is not None:
            if previous_plan_env is None:
                os.environ.pop(PLAN_ENV, None)
            else:
                os.environ[PLAN_ENV] = previous_plan_env
            reset()


def _run_sweep(
    specs: list[str],
    *,
    cache_dir,
    sweep_dir,
    experiments,
    workers,
    resume,
    fail_after,
    retries,
    retry_delay,
    case_timeout,
) -> SweepReport:
    """The sweep body (fault-plan activation handled by :func:`run_sweep`)."""
    cache_root = pathlib.Path(cache_dir)
    experiment_ids = sorted(experiments) if experiments else None
    if sweep_dir is None:
        digest = fingerprint(
            "sweep", tuple(specs), tuple(experiment_ids) if experiment_ids else "all"
        )
        sweep_root = cache_root / "sweeps" / digest
    else:
        sweep_root = pathlib.Path(sweep_dir)
    cases_dir = sweep_root / "cases"

    manifest = _Manifest(sweep_root / "manifest.json", experiment_ids)
    manifest_note = None
    if resume:
        manifest.load()
        if manifest.stale_reason is not None:
            manifest_note = (
                f"existing manifest ignored: {manifest.stale_reason}; "
                "recomputing every case"
            )
            print(f"sweep: {manifest_note}", file=sys.stderr)

    roots = (("<cache-dir>", cache_root), ("<sweep-dir>", sweep_root))
    started = time.perf_counter()
    outcomes: dict[str, SweepCase] = {}
    pending: list[str] = []
    for spec in specs:
        report = manifest.completed(spec, sweep_root)
        quarantine_error = manifest.quarantined(spec)
        if report is not None:
            outcomes[spec] = SweepCase(
                spec=spec, status="resumed", report_path=str(sweep_root / report)
            )
        elif quarantine_error is not None:
            outcomes[spec] = SweepCase(
                spec=spec, status="quarantined", error=quarantine_error
            )
        else:
            pending.append(spec)

    finished_this_run = 0
    max_attempts = retries + 1
    attempts: dict[str, int] = {spec: 0 for spec in pending}

    def record(spec: str, json_text: str, seconds: float, stats: dict, status: str):
        nonlocal finished_this_run
        relative = f"cases/{_case_slug(spec)}.json"
        path = sweep_root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json_text + "\n")
        manifest.record(
            spec,
            {
                "status": "done",
                "report": relative,
                "result": status,
                "seconds": round(seconds, 4),
                "attempts": attempts[spec],
            },
        )
        outcomes[spec] = SweepCase(
            spec=spec,
            status=status,
            seconds=seconds,
            report_path=str(path),
            attempts=attempts[spec],
            cache_stats=stats,
        )
        finished_this_run += 1
        if fail_after is not None and finished_this_run >= fail_after:
            raise SweepInterrupted(
                f"sweep interrupted after {finished_this_run} case(s) "
                f"(fail_after={fail_after}); resume with the same arguments"
            )

    def fail(spec: str, error: BaseException) -> None:
        """A deterministic error: report the case failed, no retries."""
        outcomes[spec] = SweepCase(
            spec=spec,
            status="failed",
            error=normalize_error(str(error), *roots),
            attempts=attempts[spec],
        )

    def quarantine(spec: str, error: BaseException) -> None:
        """Attempts exhausted: rule the poison case out, keep sweeping."""
        message = normalize_error(str(error), *roots)
        manifest.record(
            spec,
            {"status": "quarantined", "error": message, "attempts": attempts[spec]},
        )
        outcomes[spec] = SweepCase(
            spec=spec, status="quarantined", error=message, attempts=attempts[spec]
        )

    def task_for(spec: str) -> tuple:
        return (spec, tuple(experiment_ids) if experiment_ids else None, str(cache_root))

    cases_dir.mkdir(parents=True, exist_ok=True)
    if workers == 1 or len(pending) <= 1:
        _run_serial(
            pending, task_for, record, fail, quarantine, attempts, max_attempts,
            retry_delay,
        )
    else:
        _run_pool(
            pending, task_for, record, fail, quarantine, attempts, max_attempts,
            retry_delay, workers, case_timeout,
        )

    return SweepReport(
        cases=[outcomes[spec] for spec in specs if spec in outcomes],
        cache_dir=str(cache_root),
        sweep_dir=str(sweep_root),
        experiments=experiment_ids,
        workers=workers,
        total_seconds=time.perf_counter() - started,
        manifest_note=manifest_note,
    )


def _run_serial(
    pending, task_for, record, fail, quarantine, attempts, max_attempts, retry_delay
) -> None:
    """In-process execution with the same retry/quarantine policy."""
    for spec in pending:
        while True:
            attempts[spec] += 1
            try:
                result = _run_sweep_case(task_for(spec))
            except SweepInterrupted:
                raise
            except ReproError as error:
                fail(spec, error)
                break
            except Exception as error:  # noqa: BLE001 - case isolation
                if attempts[spec] >= max_attempts:
                    quarantine(spec, error)
                    break
                time.sleep(_backoff_delay(retry_delay, spec, attempts[spec]))
            else:
                record(*result)
                break


#: Placeholder error recorded when the pool broke under an in-flight case.
_WORKER_DIED = "worker process died while the case was in flight"

#: Placeholder error recorded when a case attempt overran its timeout.
_CASE_TIMEOUT = "case attempt exceeded the per-case timeout"


def _run_pool(
    pending, task_for, record, fail, quarantine, attempts, max_attempts,
    retry_delay, workers, case_timeout,
) -> None:
    """Windowed process-pool execution with crash recovery.

    At most ``workers`` cases are outstanding at any moment, so when the
    pool breaks (a worker died abruptly) the doomed futures are exactly
    the in-flight cases; the executor is respawned and the queued remainder
    is untouched.  A break with one case in flight charges that case an
    attempt.  A break with several cases in flight cannot tell whose worker
    died, so none of them is charged: they re-run one at a time, and a
    case that breaks the pool alone is charged then.  An innocent case is
    therefore never quarantined for a neighbour's crashes.  A case past its
    ``case_timeout`` deadline is abandoned (the attempt counts as a failure
    and is retried); its worker keeps running until the attempt finishes,
    but the scheduler no longer waits for it.
    """
    queue: deque[str] = deque(pending)
    # Cases in flight together when the pool broke, re-run one at a time.
    suspects: deque[str] = deque()
    # Failed attempts charged against each case's budget; ``attempts``
    # also counts the uncharged re-runs of suspects.
    charged = dict.fromkeys(pending, 0)
    retry_ready: dict[str, float] = {}
    outstanding: dict = {}
    solo = False  # the case in flight is a suspect: nothing joins it
    abandoned = False
    pool = ProcessPoolExecutor(max_workers=workers, initializer=mark_worker)

    def respawn(lost: list[str]) -> None:
        nonlocal pool
        if len(lost) == 1:
            _attempt_failed(lost[0], RuntimeError(_WORKER_DIED))
        else:
            suspects.extend(lost)
        outstanding.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=workers, initializer=mark_worker)

    def _attempt_failed(spec: str, error: BaseException) -> None:
        charged[spec] += 1
        if charged[spec] >= max_attempts:
            quarantine(spec, error)
        else:
            retry_ready[spec] = time.monotonic() + _backoff_delay(
                retry_delay, spec, charged[spec]
            )

    try:
        while queue or suspects or retry_ready or outstanding:
            now = time.monotonic()
            for spec in [s for s, ready in retry_ready.items() if ready <= now]:
                retry_ready.pop(spec)
                queue.append(spec)
            while (suspects or queue) and len(outstanding) < (
                1 if suspects or solo else workers
            ):
                solo = bool(suspects)
                source = suspects if solo else queue
                spec = source.popleft()
                attempts[spec] += 1
                try:
                    future = pool.submit(_run_sweep_case, task_for(spec))
                except BrokenProcessPool:
                    attempts[spec] -= 1
                    source.appendleft(spec)
                    respawn([s for s, _deadline in outstanding.values()])
                    continue
                deadline = now + case_timeout if case_timeout is not None else None
                outstanding[future] = (spec, deadline)
            if not outstanding:
                if retry_ready:  # only backoff timers left: sleep them out
                    time.sleep(
                        max(0.0, min(retry_ready.values()) - time.monotonic())
                    )
                continue
            wake_points = [d for _, d in outstanding.values() if d is not None]
            wake_points.extend(retry_ready.values())
            timeout = None
            if wake_points:
                timeout = max(0.0, min(wake_points) - time.monotonic()) + 0.02
            done, _ = wait(
                set(outstanding), timeout=timeout, return_when=FIRST_COMPLETED
            )
            lost = []
            # Submission order, so the suspects re-run in a stable order.
            for future in [f for f in outstanding if f in done]:
                spec, _deadline = outstanding.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    lost.append(spec)
                except SweepInterrupted:
                    raise
                except ReproError as error:
                    fail(spec, error)
                except Exception as error:  # noqa: BLE001 - case isolation
                    _attempt_failed(spec, error)
                else:
                    record(*result)
            if lost:
                respawn(lost + [s for s, _deadline in outstanding.values()])
                continue
            now = time.monotonic()
            expired = [
                future
                for future, (_spec, deadline) in outstanding.items()
                if deadline is not None and deadline <= now
            ]
            for future in expired:
                spec, _deadline = outstanding.pop(future)
                if not future.cancel():
                    abandoned = True  # already running: abandon the attempt
                _attempt_failed(spec, TimeoutError(_CASE_TIMEOUT))
    except SweepInterrupted:
        # Drop every queued case immediately — only the handful of
        # in-flight ones finish (and are discarded), so the interruption
        # really is mid-sweep even with a deep queue.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
