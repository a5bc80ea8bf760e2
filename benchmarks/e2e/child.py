"""Subprocess side of the end-to-end benchmark (spawned by ``bench.py``).

Usage::

    python benchmarks/e2e/child.py '<job JSON>'

Every repetition of a workload is a fresh interpreter running one *job*, so
no in-process cache (``GLOBAL_CACHE``, the ``lru_cache`` on
``persistence_snapshots``) turns a repeat warm.  Right after the job's
program modules are imported the child writes ``time.monotonic()`` to the
job's ``mark`` file; ``bench.py`` subtracts its own spawn time from it to get
``setup_s`` (``CLOCK_MONOTONIC`` is shared by every process on the host).

Job kinds:

* ``probe`` — import and exit (extra ``setup_s`` samples).
* ``study`` — what ``repro run <experiments> --scenario S --json`` does:
  ``run_suite`` over the scenario's study, report JSON written to ``out``.
* ``persistence`` — InternetGenerator → PolicyGenerator → Timeline.run →
  persistence_series / uptime_distribution, series written to ``out``.
* ``cli`` — ``repro.cli.main(argv)`` with stdout captured into ``out``.
* ``trace-study``, ``trace-persistence``, ``trace-sweep`` — the traced run:
  the same work, driven through each layer's public functions with a
  :class:`spans.Tracer` span around every call; writes the outputs to
  ``out``, the spans to ``spans`` (JSON lines) and the per-layer counters to
  ``metrics``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import nullcontext


def _mark(job: dict) -> None:
    with open(job["mark"], "w") as handle:
        handle.write(repr(time.monotonic()))


def _write_json(path: str, data) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, default=str)
        handle.write("\n")


def _import_entry(entry: str) -> None:
    """Import the modules a job of this entry point needs before its work."""
    if entry == "cli":
        import repro.cli  # noqa: F401
    elif entry == "study":
        import repro.session.scenarios  # noqa: F401
        import repro.session.suite  # noqa: F401
        import repro.storage.store  # noqa: F401
    else:
        import repro.analysis.persistence  # noqa: F401
        import repro.simulation.policies  # noqa: F401
        import repro.simulation.timeline  # noqa: F401
        import repro.topology.generator  # noqa: F401


def _study(job: dict):
    """The scenario's study with its policy and IRR seeds moved by ``policy_offset``.

    The topology and the vantage plan stay the preset's, so every offset
    simulates the same Internet under a fresh policy assignment.
    """
    from dataclasses import replace

    from repro.session.cache import StageCache
    from repro.session.scenarios import resolve_scenario
    from repro.storage.store import DiskStore

    disk = DiskStore(job["cache_dir"]) if job["cache_dir"] else None
    study = resolve_scenario(job["scenario"]).study(cache=StageCache(disk=disk))
    offset = job["policy_offset"]
    if offset:
        config = study.config
        study = study.with_(
            policy=replace(config.policy, seed=config.policy.seed + offset),
            irr=replace(config.irr, seed=config.irr.seed + offset),
        )
    return study


# -- timed jobs ------------------------------------------------------------------


def run_study(job: dict) -> int:
    _import_entry("study")
    from repro.session.suite import run_suite

    _mark(job)
    study = _study(job)
    report = run_suite(study, job["experiments"], scenario=job["scenario"])
    with open(job["out"], "w") as handle:
        handle.write(report.to_json() + "\n")
    return 0


def run_cli(job: dict) -> int:
    import contextlib

    from repro.cli import main

    _mark(job)
    with open(job["out"], "w") as handle, contextlib.redirect_stdout(handle):
        return main(job["argv"])


def _persistence_panels(job: dict, tracer=None) -> dict:
    """The Fig. 6/7 persistence pipeline, one panel per (snapshots, churn seed)."""
    from repro.analysis.persistence import persistence_series, uptime_distribution
    from repro.simulation.policies import PolicyGenerator, PolicyParameters
    from repro.simulation.timeline import Timeline, TimelineParameters
    from repro.topology.generator import GeneratorParameters, InternetGenerator

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext({})

    panels = []
    for snapshot_count, churn_seed in job["panels"]:
        with span("topology"):
            internet = InternetGenerator(
                GeneratorParameters(seed=job["topology_seed"], **job["topology_sizes"])
            ).generate()
        with span("policies"):
            assignment = PolicyGenerator(
                PolicyParameters(seed=job["policy_seed"])
            ).generate(internet)
        provider = max(internet.tier1, key=internet.graph.degree)
        with span("timeline") as counters:
            snapshots = Timeline(
                internet,
                assignment,
                observed_ases=[provider],
                parameters=TimelineParameters(
                    snapshot_count=snapshot_count, seed=churn_seed, **job["churn"]
                ),
            ).run()
            counters["snapshots"] = len(snapshots)
            counters["messages"] = sum(s.result.message_count for s in snapshots)
        with span("persistence"):
            series = persistence_series(snapshots, provider, internet.graph)
            distribution = uptime_distribution(snapshots, provider, internet.graph)
        panels.append(
            {
                "snapshots": snapshot_count,
                "provider": provider,
                "series": series.as_rows(),
                "histogram": distribution.histogram(),
                "percent_shifting": distribution.percent_shifting,
            }
        )
    return {"panels": panels}


def run_persistence(job: dict) -> int:
    _import_entry("persistence")
    _mark(job)
    _write_json(job["out"], _persistence_panels(job))
    return 0


# -- traced jobs -----------------------------------------------------------------

#: Study stages in pipeline order; calling them in this order makes each
#: span time only its own stage, because every upstream artifact is cached.
STAGES = ("topology", "policies", "propagation", "observation", "irr", "dataset", "analysis")


def _store_metrics(disk) -> dict:
    metrics = {
        f"store.{stage}.bytes": counters["bytes"]
        for stage, counters in disk.stats().items()
    }
    health = disk.health()
    metrics["store.write_failures"] = health["write_failures"]
    metrics["store.quarantined_files"] = health["quarantined_files"]
    return metrics


def _cache_metrics(stats: dict[str, dict[str, int]]) -> dict:
    metrics = {}
    useful = attempts = 0
    for stage, counters in stats.items():
        for name in ("hits", "disk_hits", "misses"):
            metrics[f"cache.{stage}.{name}"] = counters.get(name, 0)
        useful += counters.get("disk_hits", 0)
        attempts += counters.get("disk_hits", 0) + counters.get("misses", 0)
    metrics["cache.disk_hit_ratio"] = useful / attempts if attempts else 0.0
    return metrics


def trace_study(job: dict, tracer) -> tuple[dict, dict]:
    _import_entry("study")
    from repro.session.suite import run_suite

    _mark(job)
    study = _study(job)
    artifacts = {}
    for stage in STAGES:
        with tracer.span(stage):
            artifacts[stage] = getattr(study, stage)()
    experiments = []
    for experiment_id in job["experiments"]:
        with tracer.span(f"experiment.{experiment_id}"):
            report = run_suite(study, [experiment_id], scenario=job["scenario"])
        experiments.append(report.experiments[0].to_dict(include_timing=False))

    result = artifacts["propagation"]
    metrics = {
        "propagation.messages": result.message_count,
        "propagation.truncated_prefixes": len(result.truncated_prefixes),
    }
    metrics.update(
        {f"index.{name}": value for name, value in artifacts["analysis"].index.stats().items()}
    )
    metrics.update(_cache_metrics(study.cache.stats_dict()))
    if study.cache.disk is not None:
        metrics.update(_store_metrics(study.cache.disk))
    return {"experiments": experiments}, metrics


def trace_persistence(job: dict, tracer) -> tuple[dict, dict]:
    _import_entry("persistence")
    _mark(job)
    output = _persistence_panels(job, tracer)
    timelines = [span for span in tracer.spans if span["name"] == "timeline"]
    metrics = {
        "timeline.snapshots": sum(s["counters"]["snapshots"] for s in timelines),
        "timeline.messages": sum(s["counters"]["messages"] for s in timelines),
    }
    return output, metrics


def trace_sweep(job: dict, tracer) -> tuple[dict, dict]:
    import statistics

    from repro.session.sweep import run_sweep
    from repro.storage.store import DiskStore

    _mark(job)
    with tracer.span("sweep"):
        report = run_sweep(
            job["specs"],
            cache_dir=job["cache_dir"],
            sweep_dir=job["sweep_dir"],
            experiments=job["experiments"],
            workers=job["workers"],
        )
    seconds = [case.seconds for case in report.cases if case.status == "completed"]
    percentiles = statistics.quantiles(seconds, n=20) if len(seconds) > 1 else [0.0] * 19
    metrics = {
        "sweep.case_p50_s": percentiles[9],
        "sweep.case_p95_s": percentiles[18],
        "sweep.attempts": sum(case.attempts for case in report.cases),
        "sweep.retries": sum(max(0, case.attempts - 1) for case in report.cases),
        "sweep.failed": report.count("failed"),
        "sweep.quarantined": report.count("quarantined"),
    }
    stage_totals: dict[str, dict[str, int]] = {}
    write_failures = 0
    for case in report.cases:
        for stage, counters in (case.cache_stats or {}).items():
            if stage == "store":
                write_failures += counters["write_failures"]
                continue
            totals = stage_totals.setdefault(stage, {})
            for name, value in counters.items():
                totals[name] = totals.get(name, 0) + value
    metrics.update(_cache_metrics(stage_totals))
    metrics.update(_store_metrics(DiskStore(job["cache_dir"])))
    metrics["store.write_failures"] = write_failures
    return json.loads(report.to_json()), metrics


_TRACED = {
    "trace-study": trace_study,
    "trace-persistence": trace_persistence,
    "trace-sweep": trace_sweep,
}


def run_traced(job: dict) -> int:
    from spans import Tracer, busy_by_name

    tracer = Tracer(job["run"])
    with tracer.span("run"):
        output, metrics = _TRACED[job["kind"]](job, tracer)
        # The pipeline's artifacts form reference cycles, which the untraced
        # run frees at interpreter exit; collecting them here puts that cost
        # inside a span.
        with tracer.span("release"):
            gc.collect()
    busy = busy_by_name(tracer.spans)
    metrics.update({f"{name}.busy_s": seconds for name, seconds in busy.items()})
    metrics.pop("run.busy_s")
    metrics["trace.covered_s"] = sum(
        seconds for name, seconds in busy.items() if name != "run"
    )
    if busy.get("propagation"):
        metrics["propagation.msgs_per_s"] = (
            metrics["propagation.messages"] / busy["propagation"]
        )
    if busy.get("timeline"):
        metrics["timeline.s_per_snapshot"] = busy["timeline"] / metrics["timeline.snapshots"]
    tracer.write_jsonl(job["spans"])
    _write_json(job["metrics"], metrics)
    _write_json(job["out"], output)
    return 0


def main(job: dict) -> int:
    kind = job["kind"]
    if kind == "probe":
        _import_entry(job["entry"])
        _mark(job)
        return 0
    if kind == "study":
        return run_study(job)
    if kind == "persistence":
        return run_persistence(job)
    if kind == "cli":
        return run_cli(job)
    return run_traced(job)


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
