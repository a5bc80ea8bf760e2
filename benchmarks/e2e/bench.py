"""End-to-end benchmark of the reproduction pipeline, with a traced per-layer run.

Usage::

    python benchmarks/e2e/bench.py                     # every workload, seed 0
    python benchmarks/e2e/bench.py --workload cold --seed 3 --seconds 20 --trace 0
    python benchmarks/e2e/bench.py --seed 1 --out runs.jsonl
    python benchmarks/e2e/bench.py --workload cold --scenario large --seconds 0

Each workload's repetitions run as fresh subprocesses (``child.py``) with
tracing off; they give the end-to-end metrics.  Repetitions continue until
``--seconds`` of them have been measured (at least one).  With tracing on
(``--trace 1``, or ``--trace`` omitted) one more subprocess then drives the
same work through each layer's public functions with a span around every
call, which gives the per-layer metrics (see ``README.md``).

Every output is checked: each experiment report, persistence series and
sweep case report is reduced to a sha256 digest of its timing-masked JSON.
Repetitions, the traced run and the cold and warm-disk workloads must agree,
and at seed 0 the digests must equal the committed ``digests.json``.  A
process that fails, a missing report and a digest mismatch all count as
failed operations and make the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` appends
one JSON line per workload with every sample, the digests and the
environment; ``compare.py`` reads those files.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DIGESTS_PATH = HERE / "digests.json"

#: Default ``--seconds``: measured repetition time per workload run.
RUN_SECONDS = 20

#: Import-only subprocesses per run, extra ``setup_s`` samples.
PROBES = 5

#: No subprocess of a run outlives this many seconds after the run started.
RUN_BUDGET_S = 165.0

#: Scenario of the cold and warm-disk workloads.  One ``large`` run takes
#: ~21 s, too long to repeat within a run; ``standard`` (~2.4 s) gives a
#: median over several repetitions.  ``--scenario large`` measures the
#: ROADMAP's hot-spot scale with the same harness.
RUN_SCENARIO = "standard"

#: Policy variants per cold/warm-disk run.  Seed S runs the scenario with
#: its policy and IRR seeds moved by 4S, 4S+1, 4S+2 and 4S+3, repetition i
#: taking variant i mod 4.  Over ten seeds one policy draw per run spread
#: the peak RSS by 10%; the median over four draws spreads it by 2-6%.
POLICY_VARIANTS = 4

#: Every experiment except fig6/fig7, which run on their own small Internet
#: and are the ``persistence`` workload.
RUN_EXPERIMENTS = (
    "ablations", "atoms", "case3", "fig2", "fig9", "table1", "table10", "table11",
    "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
)

#: table11 raises ExperimentError on family samples without a tagging
#: Looking Glass (e.g. community-adoption@16), so the sweep leaves it out.
SWEEP_EXPERIMENTS = tuple(e for e in RUN_EXPERIMENTS if e != "table11")
SWEEP_FAMILIES = (
    "collector-size", "community-adoption", "hierarchy-depth", "multihoming",
    "peering-density",
)
#: 200 cases per repetition (~11 s): two repetitions fit a run, and the
#: traced run's p95 case time has ten cases beyond it.
SWEEP_SAMPLES = 40
SWEEP_WORKERS = 2

#: The Fig. 6/7 persistence inputs (``experiments/common.py``).  Seed S adds
#: S to the two churn seeds and keeps the Internet and its policies; a
#: fresh Internet per seed spread the run time by 11% and the memory by 8%.
PERSISTENCE_TOPOLOGY_SEED = 777
PERSISTENCE_POLICY_SEED = 915
PERSISTENCE_PANELS = ((31, 315), (12, 316))
PERSISTENCE_SIZES = {"tier1_count": 4, "tier2_count": 8, "tier3_count": 16, "stub_count": 90}
PERSISTENCE_CHURN = {
    "churn_probability": 0.015,
    "appear_probability": 0.008,
    "disappear_probability": 0.005,
}


def digest(data) -> str:
    """sha256 of a canonical JSON rendering."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_json(path: pathlib.Path):
    with open(path) as handle:
        return json.load(handle)


# -- workloads -------------------------------------------------------------------


class RunWorkload:
    """What ``repro run <every experiment but fig6 fig7> --scenario S --json`` does.

    The topology is the scenario's for every seed, so each run simulates an
    Internet of one size; seed and repetition pick the policy variant (see
    :data:`POLICY_VARIANTS`).  With ``disk`` every repetition reads one
    store that store-filling runs, one per variant (``fill_s``), wrote
    first, as ``--cache-dir`` does.
    """

    entry = "study"

    def __init__(self, name: str, why: str, *, disk: bool, scenario: str = RUN_SCENARIO):
        self.name = name
        self.why = why
        self.disk = disk
        self.scenario = scenario

    def ops(self, seed: int) -> list[str]:
        return list(RUN_EXPERIMENTS)

    def fill_jobs(self, seed: int, work: pathlib.Path) -> list[dict]:
        if not self.disk:
            return []
        return [self.timed_job(seed, work, variant) for variant in range(POLICY_VARIANTS)]

    def timed_job(self, seed: int, work: pathlib.Path, rep: int) -> dict:
        offset = POLICY_VARIANTS * seed + rep % POLICY_VARIANTS
        return {
            "kind": "study",
            "input": f"{self.scenario}/policy+{offset}",
            "scenario": self.scenario,
            "policy_offset": offset,
            "experiments": list(RUN_EXPERIMENTS),
            "cache_dir": str(work / "store") if self.disk else None,
        }

    def traced_job(self, seed: int, work: pathlib.Path) -> dict:
        return dict(self.timed_job(seed, work, 0), kind="trace-study")

    def digests(self, out: pathlib.Path) -> dict[str, str]:
        return {
            report["experiment_id"]: digest(dict(report, timing=None))
            for report in _read_json(out)["experiments"]
        }


class PersistenceWorkload:
    """The Fig. 6/7 pipeline: generator, policies, 31 + 12 Timeline snapshots."""

    entry = "persistence"

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def ops(self, seed: int) -> list[str]:
        return ["series"]

    def fill_jobs(self, seed: int, work: pathlib.Path) -> list[dict]:
        return []

    def timed_job(self, seed: int, work: pathlib.Path, rep: int) -> dict:
        return {
            "kind": "persistence",
            "input": f"persistence/churn+{seed}",
            "panels": [[count, churn + seed] for count, churn in PERSISTENCE_PANELS],
            "topology_seed": PERSISTENCE_TOPOLOGY_SEED,
            "policy_seed": PERSISTENCE_POLICY_SEED,
            "topology_sizes": PERSISTENCE_SIZES,
            "churn": PERSISTENCE_CHURN,
        }

    def traced_job(self, seed: int, work: pathlib.Path) -> dict:
        return dict(self.timed_job(seed, work, 0), kind="trace-persistence")

    def digests(self, out: pathlib.Path) -> dict[str, str]:
        return {"series": digest(_read_json(out))}


class SweepWorkload:
    """A cold ``repro sweep`` over 40 samples of every scenario family."""

    entry = "cli"

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def ops(self, seed: int) -> list[str]:
        return [
            f"{family}@{1000 * seed + index}"
            for family in SWEEP_FAMILIES
            for index in range(SWEEP_SAMPLES)
        ]

    def fill_jobs(self, seed: int, work: pathlib.Path) -> list[dict]:
        return []

    def timed_job(self, seed: int, work: pathlib.Path, rep: int) -> dict:
        argv = ["sweep"]
        for family in SWEEP_FAMILIES:
            argv += ["--family", family]
        for experiment in SWEEP_EXPERIMENTS:
            argv += ["-e", experiment]
        argv += [
            "--count", str(SWEEP_SAMPLES),
            "--seed", str(1000 * seed),
            "--workers", str(SWEEP_WORKERS),
            "--cache-dir", str(work / f"sweep-{rep}" / "cache"),
            "--sweep-dir", str(work / f"sweep-{rep}" / "sweep"),
            "--json",
        ]
        return {"kind": "cli", "input": f"sweep-families/{1000 * seed}", "argv": argv}

    def traced_job(self, seed: int, work: pathlib.Path) -> dict:
        return {
            "kind": "trace-sweep",
            "input": f"sweep-families/{1000 * seed}",
            "specs": self.ops(seed),
            "experiments": list(SWEEP_EXPERIMENTS),
            "workers": SWEEP_WORKERS,
            "cache_dir": str(work / "sweep-trace" / "cache"),
            "sweep_dir": str(work / "sweep-trace" / "sweep"),
        }

    def digests(self, out: pathlib.Path) -> dict[str, str]:
        report = _read_json(out)
        digests = {
            case["spec"]: hashlib.sha256(pathlib.Path(case["report"]).read_bytes()).hexdigest()
            for case in report["cases"]
            if case["status"] in ("completed", "cached") and case["report"]
        }
        # Each repetition's store holds ~100 MB; only the digests are kept.
        shutil.rmtree(pathlib.Path(report["cache_dir"]).parent, ignore_errors=True)
        return digests


def workloads(scenario: str = RUN_SCENARIO) -> dict:
    """Every workload by name; ``scenario`` applies to cold and warm-disk."""
    return {
        workload.name: workload
        for workload in (
            RunWorkload(
                "cold",
                "memory-only repro run of 16 experiments on standard: propagation, "
                "index build and experiments, no storage; propagation and index gains "
                "show here",
                disk=False,
                scenario=scenario,
            ),
            RunWorkload(
                "warm-disk",
                "the same run from a filled --cache-dir store: codec decode instead of "
                "builds; the read side of the storage layer",
                disk=True,
                scenario=scenario,
            ),
            PersistenceWorkload(
                "persistence",
                "Fig. 6/7 timeline: 43 snapshots of compile and propagate; incremental "
                "Timeline gains show here; touches neither index nor storage",
            ),
            SweepWorkload(
                "sweep-families",
                "cold 200-case family sweep at 2 workers: per-case orchestration, "
                "process pool and many small store writes",
            ),
        )
    }


WORKLOADS = workloads()

# -- metrics ---------------------------------------------------------------------

#: (name, unit, bound) of every end-to-end metric; all are "lower is better".
#: On a shared 2-vCPU host the run-to-run spread of the interpreter start-up
#: alone reached 4-41%, so time bounds are the largest allowed (25%); memory
#: depends only on the inputs and spreads by at most 6%.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.15),
    ("fill_s", "s", 0.25),
)

STAGE_NAMES = ("topology", "policies", "propagation", "observation", "irr", "dataset",
               "analysis")
CACHE_STAGES = ("topology", "policies", "propagation", "observation", "irr", "analysis",
                "report")
STORE_TIERS = ("topology", "policies", "propagation", "observation", "irr", "analysis",
               "compiled-topology", "report")

#: (name, unit, better) of every per-layer metric, reported by the traced
#: run; a metric a workload does not exercise reads 0.
PER_LAYER = (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    *((f"{stage}.busy_s", "s", "lower") for stage in STAGE_NAMES),
    ("propagation.messages", "count", "lower"),
    ("propagation.msgs_per_s", "1/s", "higher"),
    ("propagation.truncated_prefixes", "count", "lower"),
    ("index.collector_rows", "count", "lower"),
    ("index.interned_paths", "count", "lower"),
    ("index.glass_route_rows", "count", "lower"),
    ("index.table_best_rows", "count", "lower"),
    *((f"experiment.{experiment}.busy_s", "s", "lower") for experiment in RUN_EXPERIMENTS),
    ("release.busy_s", "s", "lower"),
    *(
        (f"cache.{stage}.{counter}", "count", "lower" if counter == "misses" else "higher")
        for stage in CACHE_STAGES
        for counter in ("hits", "disk_hits", "misses")
    ),
    ("cache.disk_hit_ratio", "ratio", "higher"),
    *((f"store.{tier}.bytes", "bytes", "lower") for tier in STORE_TIERS),
    ("store.write_failures", "count", "lower"),
    ("store.quarantined_files", "count", "lower"),
    ("timeline.busy_s", "s", "lower"),
    ("timeline.snapshots", "count", "higher"),
    ("timeline.messages", "count", "lower"),
    ("timeline.s_per_snapshot", "s", "lower"),
    ("persistence.busy_s", "s", "lower"),
    ("sweep.busy_s", "s", "lower"),
    ("sweep.case_p50_s", "s", "lower"),
    ("sweep.case_p95_s", "s", "lower"),
    ("sweep.attempts", "count", "lower"),
    ("sweep.retries", "count", "lower"),
    ("sweep.failed", "count", "lower"),
    ("sweep.quarantined", "count", "lower"),
)


def benchmark_spec() -> dict:
    """The ``BENCHMARK.json`` this benchmark is run under."""
    return {
        "command": ["python3", "benchmarks/e2e/bench.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, unit, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


# -- subprocesses ----------------------------------------------------------------


@dataclass
class Process:
    """One finished child process."""

    wall: float
    setup: float | None
    rss_mb: float
    returncode: int
    out: pathlib.Path
    log: pathlib.Path

    def failure(self) -> str | None:
        if self.returncode == 0:
            return None
        try:
            tail = self.log.read_text(errors="replace").strip().splitlines()[-3:]
        except OSError:
            tail = []
        return f"exit {self.returncode}: " + " | ".join(tail)


def _child_env(work: pathlib.Path) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")  # no inherited store, fault plan or crash hook
    }
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(job: dict, work: pathlib.Path, number: int, timeout: float) -> Process:
    """Run job ``number`` of a run; wall time is spawn to exit, RSS covers pool workers."""
    mark = work / f"mark-{number}"
    job = dict(job, mark=str(mark), out=str(work / f"out-{number}.json"))
    log = work / f"log-{number}.txt"
    with open(log, "wb") as log_handle:
        started = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT,
            env=_child_env(work),
            stdin=subprocess.DEVNULL,
            stdout=log_handle,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (child.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            _kill_group(child.pid)
            child.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    child.returncode = os.waitstatus_to_exitcode(status)
    try:
        setup = float(mark.read_text()) - started
    except (OSError, ValueError):
        setup = None
    return Process(
        wall=ended - started,
        setup=setup,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=child.returncode,
        out=pathlib.Path(job["out"]),
        log=log,
    )


# -- one workload run -------------------------------------------------------------


class Tally:
    """Attempted and failed operations, outputs checked against reference digests.

    ``references`` maps a job's ``input`` to the digests its outputs must
    have: the committed seed-0 digests, else the first output seen for that
    input in this invocation (shared by every workload, so the cold,
    warm-disk and traced runs of one input must agree).
    """

    def __init__(self, ops: list[str], references: dict[str, dict]):
        self.ops = ops
        self.references = references
        self.inputs: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, label: str, job: dict, process: Process, workload) -> None:
        self.attempted += len(self.ops)
        failure = process.failure()
        digests: dict[str, str] = {}
        if failure is None:
            try:
                digests = workload.digests(process.out)
            except (OSError, ValueError, KeyError, TypeError) as error:
                failure = f"unreadable output: {error!r}"
        if failure is not None:
            self.errors.append(f"{label}: {failure}")
        key = job["input"]
        if key not in self.inputs:
            self.inputs.append(key)
        if digests:
            self.references.setdefault(key, dict(digests))
        reference = self.references.get(key, {})
        bad = [op for op in self.ops if op not in digests or digests[op] != reference.get(op)]
        self.failed += len(bad)
        if bad and failure is None:
            shown = ", ".join(bad[:5]) + (" ..." if len(bad) > 5 else "")
            self.errors.append(f"{label}: {len(bad)} output(s) missing or differing: {shown}")


def _summary(samples: dict[str, list[float]], unit: str) -> dict:
    """Median over inputs of each input's median, so an uneven count of
    repetitions per policy variant does not tilt the value."""
    pooled = [value for values in samples.values() for value in values]
    return {
        "value": statistics.median(statistics.median(values) for values in samples.values()),
        "unit": unit,
        "min": min(pooled),
        "max": max(pooled),
        "n": len(pooled),
        "samples": samples,
    }


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: pathlib.Path,
    trace_dir: pathlib.Path,
    references: dict[str, dict] | None = None,
) -> dict:
    """Run one workload and return its metrics, checks and digests."""
    started = time.monotonic()
    tally = Tally(workload.ops(seed), {} if references is None else references)
    setup: list[float] = []
    work.mkdir(parents=True, exist_ok=True)
    numbers = itertools.count()

    def run(label: str, job: dict) -> Process:
        timeout = max(5.0, RUN_BUDGET_S - (time.monotonic() - started))
        process = spawn(job, work, next(numbers), timeout)
        if process.setup is not None:
            setup.append(process.setup)
        if job["kind"] == "probe":
            if process.failure() is not None:
                tally.errors.append(f"{label}: {process.failure()}")
        else:
            tally.check(label, job, process, workload)
        return process

    for number in range(PROBES):
        run(f"probe {number}", {"kind": "probe", "entry": workload.entry})
    walls: dict[str, list[float]] = {}
    rss: dict[str, list[float]] = {}
    fills: dict[str, list[float]] = {}
    measured = 0.0
    for number, job in enumerate(workload.fill_jobs(seed, work)):
        fills.setdefault(job["input"], []).append(run(f"fill {number}", job).wall)
    for rep in itertools.count():
        job = workload.timed_job(seed, work, rep)
        process = run(f"rep {rep}", job)
        walls.setdefault(job["input"], []).append(process.wall)
        rss.setdefault(job["input"], []).append(process.rss_mb)
        measured += process.wall
        elapsed = time.monotonic() - started
        if measured >= seconds or elapsed + process.wall > RUN_BUDGET_S:
            break

    metrics = {
        "wall_s": _summary(walls, "s"),
        "setup_s": _summary({"all": setup or [0.0]}, "s"),
        "peak_rss_mb": _summary(rss, "MB"),
        # Without a store every repetition starts empty, so fills it.
        "fill_s": _summary(fills or walls, "s"),
    }
    if trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        metrics_path = work / "trace-metrics.json"
        job = dict(
            workload.traced_job(seed, work),
            run=f"{workload.name}@{seed}",
            spans=str(trace_dir / f"{workload.name}-seed{seed}.jsonl"),
            metrics=str(metrics_path),
        )
        traced = run("traced run", job)
        try:
            layer = _read_json(metrics_path)
        except (OSError, ValueError):
            layer = {}
        layer["trace.wall_s"] = traced.wall
        untraced = walls.get(job["input"]) or [metrics["wall_s"]["value"]]
        layer["trace.overhead_s"] = traced.wall - statistics.median(untraced)
        layer["trace.coverage"] = layer.get("trace.covered_s", 0.0) / traced.wall
        metrics.update(
            {name: {"value": layer.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": metrics,
        "digests": {key: tally.references.get(key) for key in tally.inputs},
    }


# -- command line ----------------------------------------------------------------


def environment() -> dict:
    """The machine facts every result records."""
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _warnings(env: dict) -> list[str]:
    warnings = []
    if env["nproc"] < SWEEP_WORKERS:
        warnings.append(
            f"nproc={env['nproc']} < {SWEEP_WORKERS}: the sweep workload oversubscribes"
        )
    if env["loadavg"][0] > env["nproc"]:
        warnings.append(
            f"load average {env['loadavg'][0]:.2f} exceeds nproc={env['nproc']}: "
            "timings are not trustworthy"
        )
    return warnings


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_result(result: dict) -> None:
    for name, metric in result["metrics"].items():
        spread = ""
        if "n" in metric:
            spread = (
                f"  (min {_format(metric['min'])}, max {_format(metric['max'])}, "
                f"n={metric['n']})"
            )
        print(f"{result['workload']:16s} {name:34s} {_format(metric['value']):>14s} "
              f"{metric['unit']}{spread}")
    print(f"{result['workload']:16s} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for error in result["errors"]:
        print(f"{result['workload']:16s} error: {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; seed 0's output digests are committed (default: 0)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"measured repetition time per workload (default: {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: add the traced run and "
                        "report per-layer metrics (default: both sets)")
    parser.add_argument("--scenario", default=RUN_SCENARIO,
                        help=f"scenario of the cold and warm-disk workloads "
                        f"(default: {RUN_SCENARIO})")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="append one JSON line per workload result to this file")
    args = parser.parse_args(argv)
    selected = workloads(args.scenario)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + " ".join(f"{key}={value}" for key, value in env.items()))
    for warning in _warnings(env):
        print(f"warning: {warning}", file=sys.stderr)

    references: dict[str, dict] = {}
    if args.seed == 0:
        try:
            references.update(_read_json(DIGESTS_PATH))
        except (OSError, ValueError) as error:
            print(f"warning: no committed digests ({error})", file=sys.stderr)

    names = args.workload or list(WORKLOADS)
    wanted = {
        None: {name for name, _, _ in END_TO_END} | {name for name, _, _ in PER_LAYER},
        0: {name for name, _, _ in END_TO_END},
        1: {name for name, _, _ in PER_LAYER},
    }[args.trace]
    results = []
    work_root = ROOT / ".bench_work"
    for name in names:
        workload = selected[name]
        work = work_root / f"{name}-{args.seed}-{os.getpid()}"
        try:
            result = measure(
                workload,
                args.seed,
                args.seconds,
                args.trace != 0,
                work,
                ROOT / ".bench_traces",
                references,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        result["environment"] = env
        result["scenario"] = args.scenario
        results.append(result)
        _print_result(result)
        if args.out is not None:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(result, sort_keys=True) + "\n")
    try:
        work_root.rmdir()
    except OSError:
        pass

    metrics = {
        (f"{result['workload']}/" if len(results) > 1 else "") + name: {
            "value": metric["value"],
            "unit": metric["unit"],
        }
        for result in results
        for name, metric in result["metrics"].items()
        if name in wanted
    }
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
