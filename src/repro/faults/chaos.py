"""The chaos harness: ``python -m repro chaos --seed S``.

Runs the same small sweep four ways and asserts the robustness invariants
the fault-injection layer is supposed to guarantee:

1. **baseline** — a fault-free sweep; its per-case timing-masked suite
   reports are the reference bytes.
2. **chaos** — the same cases under a :meth:`FaultPlan.generate` schedule
   (worker kills, ``ENOSPC``/``EIO`` write errors, artifact corruption,
   latency) over a process pool.  The sweep must terminate with every case
   completed (bounded faults + bounded retries), and every report must be
   byte-identical to the baseline.
3. **kill-point resume** — the sweep is interrupted after a seed-derived
   number of cases (the ``fail_after`` crash hook) and re-run; the resume
   must complete the full case list with byte-identical reports.
4. **degradation** — every disk write fails (``ENOSPC``, unbounded); the
   sweep must still complete every case with byte-identical reports, with
   the store reporting ``degraded`` instead of raising.

Finally a **warm re-read** over the chaos cache (which may hold corrupted
artifacts) must quarantine-and-rebuild its way to byte-identical reports.

Every check is deterministic in ``--seed``; a failure prints the seed that
reproduces it.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan, FaultRule
from repro.session.sweep import SweepInterrupted, SweepReport, run_sweep

#: Experiments each chaos case runs (small but multi-stage: the full
#: pipeline builds, two analysis tables render).
DEFAULT_EXPERIMENTS = ("table2", "table5")


def default_specs(seed: int, count: int = 3) -> list[str]:
    """The seed-derived case list: small, fast family samples."""
    if count < 2:
        count = 2
    specs = [f"collector-size@{seed + index}" for index in range(count - 1)]
    specs.append(f"multihoming@{seed}")
    return specs


@dataclass
class ChaosCheck:
    """One robustness invariant: name, verdict, human-readable detail."""

    name: str
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        """A JSON-ready mapping with a stable key order."""
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class ChaosReport:
    """The structured result of one :func:`run_chaos` call."""

    seed: int
    specs: list[str] = field(default_factory=list)
    checks: list[ChaosCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when every robustness invariant held."""
        return all(check.ok for check in self.checks)

    def to_dict(self) -> dict:
        """A JSON-ready mapping with a stable key order."""
        return {
            "seed": self.seed,
            "specs": self.specs,
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """The report as deterministic JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """A human-readable per-check summary."""
        lines = [f"chaos: seed {self.seed}, cases {', '.join(self.specs)}"]
        for check in self.checks:
            marker = "ok  " if check.ok else "FAIL"
            lines.append(f"{marker} {check.name:24s} {check.detail}")
        verdict = "all invariants held" if self.ok else "INVARIANT VIOLATED"
        lines.append(f"chaos seed {self.seed}: {verdict}")
        return "\n".join(lines)


def _report_bytes(report: SweepReport) -> dict[str, bytes]:
    """Per-spec report file bytes of a sweep (missing files map to ``b''``)."""
    result: dict[str, bytes] = {}
    for case in report.cases:
        if case.report_path is None:
            result[case.spec] = b""
            continue
        try:
            result[case.spec] = pathlib.Path(case.report_path).read_bytes()
        except OSError:
            result[case.spec] = b""
    return result


def _identical(baseline: dict[str, bytes], other: dict[str, bytes]) -> tuple[bool, str]:
    """Compare per-case report bytes against the baseline."""
    missing = sorted(set(baseline) - set(other))
    if missing:
        return False, f"missing case reports: {', '.join(missing)}"
    differing = sorted(spec for spec in baseline if baseline[spec] != other[spec])
    if differing:
        return False, f"report bytes differ from baseline: {', '.join(differing)}"
    return True, f"{len(baseline)} reports byte-identical to baseline"


def run_chaos(
    seed: int,
    *,
    specs: list[str] | None = None,
    count: int = 3,
    experiments: list[str] | None = None,
    workers: int = 2,
    retries: int = 4,
    root: str | pathlib.Path | None = None,
    keep: bool = False,
) -> ChaosReport:
    """Run every chaos check for one seed.

    Args:
        seed: drives the case list, the fault schedule and the kill point.
        specs: explicit case list (default: :func:`default_specs`).
        count: size of the default case list.
        experiments: experiment ids per case (default
            :data:`DEFAULT_EXPERIMENTS`).
        workers: pool width of the chaos sweep (>= 2 so worker kills
            exercise ``BrokenProcessPool`` recovery).
        retries: retry budget of the chaos sweep; must exceed the failures
            one case can suffer (a neighbour's kill is never charged).
        root: scratch directory (default: a fresh temp dir).
        keep: leave the scratch directory behind for inspection.

    Returns:
        The :class:`ChaosReport`; ``report.ok`` is the harness verdict.
    """
    cases = list(specs) if specs else default_specs(seed, count)
    ids = list(experiments) if experiments else list(DEFAULT_EXPERIMENTS)
    scratch = pathlib.Path(root) if root else pathlib.Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    scratch.mkdir(parents=True, exist_ok=True)
    report = ChaosReport(seed=seed, specs=cases)

    try:
        baseline_sweep = run_sweep(
            cases, cache_dir=scratch / "baseline", experiments=ids
        )
        baseline = _report_bytes(baseline_sweep)
        report.checks.append(
            ChaosCheck(
                "baseline",
                baseline_sweep.ok,
                f"{len(cases)} fault-free cases completed",
            )
        )
        if not baseline_sweep.ok:
            return report

        report.checks.append(_check_chaos_sweep(seed, cases, ids, workers, retries, scratch, baseline))
        report.checks.extend(_check_kill_resume(seed, cases, ids, scratch, baseline))
        report.checks.append(_check_degradation(cases, ids, scratch, baseline))
        report.checks.append(_check_warm_reread(cases, ids, scratch, baseline))
        return report
    finally:
        if not keep and root is None:
            shutil.rmtree(scratch, ignore_errors=True)


def _check_chaos_sweep(
    seed, cases, ids, workers, retries, scratch, baseline
) -> ChaosCheck:
    """Invariant 2: the generated fault schedule cannot change the output."""
    plan = FaultPlan.generate(seed, scratch / "faultstate")
    chaotic = run_sweep(
        cases,
        cache_dir=scratch / "chaos",
        experiments=ids,
        workers=workers,
        retries=retries,
        retry_delay=0.01,
        fault_plan=plan,
    )
    if not chaotic.ok:
        bad = [f"{c.spec}={c.status}" for c in chaotic.cases if c.status in ("failed", "quarantined")]
        return ChaosCheck("chaos-sweep", False, f"cases did not complete: {', '.join(bad)}")
    identical, detail = _identical(baseline, _report_bytes(chaotic))
    retried = sum(1 for case in chaotic.cases if case.attempts > 1)
    return ChaosCheck(
        "chaos-sweep", identical, f"{detail}; {retried} case(s) needed retries"
    )


def _check_kill_resume(seed, cases, ids, scratch, baseline) -> list[ChaosCheck]:
    """Invariant 3: an interrupt at a seed-derived point resumes cleanly."""
    kill_point = 1 + seed % max(1, len(cases) - 1)
    kwargs = dict(cache_dir=scratch / "resume", experiments=ids)
    interrupted = False
    try:
        run_sweep(cases, fail_after=kill_point, **kwargs)
    except SweepInterrupted:
        interrupted = True
    checks = [
        ChaosCheck(
            "kill-point",
            interrupted,
            f"sweep interrupted after {kill_point} case(s)"
            if interrupted
            else f"fail_after={kill_point} did not interrupt",
        )
    ]
    if not interrupted:
        return checks
    resumed = run_sweep(cases, **kwargs)
    accounted = (
        resumed.count("resumed") + resumed.count("completed") + resumed.count("cached")
    )
    if not resumed.ok or accounted != len(cases):
        checks.append(
            ChaosCheck(
                "resume", False, f"resume accounted for {accounted}/{len(cases)} cases"
            )
        )
        return checks
    identical, detail = _identical(baseline, _report_bytes(resumed))
    checks.append(
        ChaosCheck(
            "resume",
            identical,
            f"resumed {resumed.count('resumed')} case(s), completed the rest; {detail}",
        )
    )
    return checks


def _check_degradation(cases, ids, scratch, baseline) -> ChaosCheck:
    """Invariant 4: a disk tier that rejects every write degrades, not fails."""
    plan = FaultPlan(
        seed=0,
        state_dir=str(scratch / "faultstate-degraded"),
        rules=(FaultRule("store-write", rate=1.0, times=None, param="ENOSPC"),),
    )
    degraded_sweep = run_sweep(
        cases,
        cache_dir=scratch / "degraded",
        experiments=ids,
        retries=0,
        fault_plan=plan,
    )
    if not degraded_sweep.ok:
        return ChaosCheck("degradation", False, "sweep failed under persistent ENOSPC")
    flags = [
        (case.cache_stats or {}).get("store", {}).get("degraded")
        for case in degraded_sweep.cases
    ]
    if not all(flags):
        return ChaosCheck(
            "degradation", False, f"disk tier did not report degraded: {flags}"
        )
    identical, detail = _identical(baseline, _report_bytes(degraded_sweep))
    return ChaosCheck(
        "degradation",
        identical,
        f"every case completed memory-only under ENOSPC; {detail}",
    )


def _check_warm_reread(cases, ids, scratch, baseline) -> ChaosCheck:
    """Invariant 5: corrupted artifacts quarantine and rebuild on re-read."""
    warm = run_sweep(
        cases,
        cache_dir=scratch / "chaos",  # may hold corrupted artifacts
        sweep_dir=scratch / "chaos-warm",
        experiments=ids,
    )
    if not warm.ok:
        return ChaosCheck("warm-reread", False, "warm sweep over chaos cache failed")
    identical, detail = _identical(baseline, _report_bytes(warm))
    quarantined = max(
        (case.cache_stats or {}).get("store", {}).get("quarantined_files", 0)
        for case in warm.cases
    )
    return ChaosCheck(
        "warm-reread",
        identical,
        f"{detail}; {quarantined} corrupted artifact(s) in quarantine",
    )
