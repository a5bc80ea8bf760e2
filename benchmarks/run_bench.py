"""Benchmarks: propagation engines, the analyzer pass and warm-cache sweeps.

Three suites, selected with ``--suite``:

* ``propagation`` (default) — times the legacy and fast propagation engines;
  the fast row splits its total into the constructor (topology compilation)
  and ``run()`` (``BENCH_propagation.json``).
* ``analysis`` — times the paper's full analyzer pass twice over the same
  dataset: once with the legacy per-analyzer :mod:`repro.core` classes, once
  through the compiled :class:`~repro.analysis.index.MeasurementIndex` +
  :class:`~repro.analysis.engine.AnalysisEngine` (index build *included* in
  the timed engine pass).  Writes ``BENCH_analysis.json``.
* ``sweep`` — times a multi-scenario ``repro sweep`` cold (empty artifact
  store) versus warm (same store, fresh sweep directory) and verifies the
  warm run served every case from the durable store with byte-identical
  reports; also interrupts a sweep mid-flight and checks the resume path.
  Writes ``BENCH_sweep.json``.

Usage::

    python benchmarks/run_bench.py                       # propagation: small + standard
    python benchmarks/run_bench.py --scenario standard --repeats 3
    python benchmarks/run_bench.py --suite analysis --scenario large
    python benchmarks/run_bench.py --suite analysis --full
    python benchmarks/run_bench.py --full                # adds the large scenario
    python benchmarks/run_bench.py --suite sweep         # 20 sampled scenarios
    python benchmarks/run_bench.py --suite sweep --workers 4

All suites cross-check the timed runs against the golden behaviour (the
propagation suite compares message counts, the analysis suite compares the
actual result objects, the sweep suite compares report bytes) — a benchmark
that drifts fails loudly instead of reporting a meaningless speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.session.cache import StageCache  # noqa: E402
from repro.session.scenarios import resolve_scenario  # noqa: E402
from repro.simulation.fastpath import FastPropagationEngine  # noqa: E402
from repro.simulation.propagation import PropagationEngine  # noqa: E402

_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = _ROOT / "BENCH_propagation.json"
DEFAULT_ANALYSIS_OUTPUT = _ROOT / "BENCH_analysis.json"
DEFAULT_SWEEP_OUTPUT = _ROOT / "BENCH_sweep.json"

#: Default sweep-bench case list: four samples of each scenario family —
#: 20 distinct sampled scenarios.
SWEEP_CASES = [
    f"{family}@{seed}"
    for family in (
        "peering-density",
        "multihoming",
        "hierarchy-depth",
        "community-adoption",
        "collector-size",
    )
    for seed in range(4)
]


def _time_legacy(internet, plan, repeats: int) -> tuple[float, int]:
    best = None
    messages = 0
    for _ in range(repeats):
        started = time.perf_counter()
        result = PropagationEngine(
            internet, plan.assignment, observed_ases=plan.observed_ases
        ).run()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
        messages = result.message_count
    return best, messages


def _time_fast(internet, plan, repeats: int) -> tuple[float, float, int]:
    """Best ``(total, compile)`` seconds: the constructor compiles, ``run()`` propagates."""
    best = None
    best_compile = None
    messages = 0
    for _ in range(repeats):
        started = time.perf_counter()
        engine = FastPropagationEngine(
            internet, plan.assignment, observed_ases=plan.observed_ases
        )
        compile_seconds = time.perf_counter() - started
        result = engine.run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
            best_compile = compile_seconds
        messages = result.message_count
    return best, best_compile, messages


def run_benchmarks(scenarios: list[str], repeats: int) -> list[dict]:
    cpu_count = os.cpu_count() or 1
    results = []
    for name in scenarios:
        study = resolve_scenario(name).study(cache=StageCache())
        internet = study.topology()
        plan = study.policies()
        print(f"[{name}] timing legacy engine ...", file=sys.stderr)
        legacy_seconds, legacy_messages = _time_legacy(internet, plan, repeats)
        results.append(
            {
                "scenario": name,
                "engine": "legacy",
                "cpu_count": cpu_count,
                "seconds": round(legacy_seconds, 4),
                "compile_seconds": 0.0,
                "messages": legacy_messages,
                "speedup_vs_legacy": 1.0,
            }
        )
        print(
            f"[{name}] legacy: {legacy_seconds:.2f}s ({legacy_messages} messages)",
            file=sys.stderr,
        )
        print(f"[{name}] timing fast engine ...", file=sys.stderr)
        fast_seconds, compile_seconds, fast_messages = _time_fast(internet, plan, repeats)
        if fast_messages != legacy_messages:
            raise SystemExit(
                f"engine divergence on {name!r}: legacy processed "
                f"{legacy_messages} messages, fast {fast_messages}"
            )
        results.append(
            {
                "scenario": name,
                "engine": "fast",
                "cpu_count": cpu_count,
                "seconds": round(fast_seconds, 4),
                "compile_seconds": round(compile_seconds, 4),
                "run_seconds": round(fast_seconds - compile_seconds, 4),
                "messages": fast_messages,
                "speedup_vs_legacy": round(legacy_seconds / fast_seconds, 2),
            }
        )
        print(
            f"[{name}] fast: {fast_seconds:.2f}s (compile {compile_seconds:.2f}s, "
            f"{legacy_seconds / fast_seconds:.2f}x)",
            file=sys.stderr,
        )
    return results


# -- the analyzer-pass suite --------------------------------------------------------


def _legacy_analyzer_pass(dataset) -> tuple[dict, dict]:
    """Run the paper's full analyzer pass with the legacy repro.core classes.

    Returns ``(results, step timings)``; the results dict is compared
    against the engine pass for equality.
    """
    from repro.core.atoms import PolicyAtomAnalyzer
    from repro.core.causes import CauseAnalyzer
    from repro.core.community import CommunityAnalyzer
    from repro.core.consistency import ConsistencyAnalyzer
    from repro.core.export_policy import ExportPolicyAnalyzer
    from repro.core.import_policy import ImportPolicyAnalyzer
    from repro.core.peer_export import PeerExportAnalyzer
    from repro.core.verification import Verifier
    from repro.relationships.gao import GaoInference

    graph = dataset.ground_truth_graph
    glasses = [dataset.looking_glass_of(a) for a in dataset.looking_glass_ases]
    tagging = [
        dataset.looking_glass_of(a)
        for a in dataset.looking_glass_ases
        if dataset.assignment.policies[a].community_plan is not None
    ]
    providers = dataset.internet.providers_under_study(3)
    tables = {p: dataset.result.table_of(p) for p in providers}
    originated = dataset.internet.originated
    collector = dataset.collector

    results: dict = {}
    timings: dict[str, float] = {}

    def step(name, fn):
        started = time.perf_counter()
        results[name] = fn()
        timings[name] = time.perf_counter() - started

    step("atoms", lambda: PolicyAtomAnalyzer().compute_atoms(collector))
    importer = ImportPolicyAnalyzer(graph)
    step("import_lg", lambda: importer.analyze_many(glasses))
    step("import_irr", lambda: importer.analyze_irr(dataset.irr, min_neighbors=5))
    consistency = ConsistencyAnalyzer()
    step("consistency_as", lambda: consistency.analyze_many(glasses))
    biggest = max(glasses, key=lambda g: len(list(g.table.prefixes())))
    step(
        "consistency_routers",
        lambda: consistency.analyze_routers(biggest, router_count=30),
    )
    exporter = ExportPolicyAnalyzer(graph)
    step(
        "sa_studied",
        lambda: exporter.analyze_providers(tables, known_customer_prefixes=originated),
    )
    step(
        "sa_all",
        lambda: exporter.analyze_providers(
            {
                asn: dataset.result.table_of(asn)
                for asn in dataset.result.observed_ases
                if graph.customers_of(asn)
            },
            known_customer_prefixes=originated,
        ),
    )
    step(
        "customer_sa",
        lambda: exporter.analyze_customers(results["sa_studied"], tables),
    )
    step(
        "peer_export",
        lambda: PeerExportAnalyzer(graph).analyze_many(tables, originated=originated),
    )
    causes = CauseAnalyzer(graph)
    step(
        "causes",
        lambda: {
            p: (
                causes.homing_breakdown(r),
                causes.cause_breakdown(r, tables[p]),
                causes.case3_analysis(r, collector),
            )
            for p, r in results["sa_studied"].items()
        },
    )
    community = CommunityAnalyzer()
    step(
        "community",
        lambda: [
            (community.neighbor_signatures(g), community.infer_semantics(g))
            for g in tagging
        ],
    )
    step("fig9", lambda: [community.prefix_counts_by_rank(g) for g in glasses])
    step(
        "verify_relationships",
        lambda: Verifier(
            GaoInference().infer(collector.all_paths()).graph,
            CommunityAnalyzer(),
        ).verify_relationships(tagging),
    )
    step(
        "verify_sa",
        lambda: Verifier(graph).verify_many(results["sa_studied"], collector),
    )
    return results, timings


def _engine_analyzer_pass(study) -> tuple[dict, dict]:
    """Run the same analyzer pass through an index freshly compiled from the stages.

    The index build is a timed step (``index_build``), so the reported
    engine total is end-to-end honest.
    """
    from repro.analysis.engine import AnalysisEngine
    from repro.analysis.index import MeasurementIndex

    results: dict = {}
    timings: dict[str, float] = {}

    def step(name, fn):
        started = time.perf_counter()
        results[name] = fn()
        timings[name] = time.perf_counter() - started

    internet, plan, rib, irr = (
        study.topology(), study.policies(), study.propagation().rib, study.irr()
    )
    started = time.perf_counter()
    engine = AnalysisEngine(MeasurementIndex(internet, plan, rib, irr))
    timings["index_build"] = time.perf_counter() - started

    step("atoms", engine.atoms)
    step("import_lg", engine.import_typicality)
    step("import_irr", lambda: engine.irr_typicality(min_neighbors=5))
    step("consistency_as", engine.consistency_by_as)
    step("consistency_routers", lambda: engine.consistency_by_router(router_count=30))
    step("sa_studied", engine.sa_reports)
    step("sa_all", engine.all_provider_reports)
    step("customer_sa", engine.customer_sa_reports)
    step("peer_export", engine.peer_export_reports)
    step(
        "causes",
        lambda: {
            p: (engine.homing_breakdown(p), engine.cause_breakdown(p), engine.case3(p))
            for p in engine.sa_reports()
        },
    )
    step(
        "community",
        lambda: [
            (engine.neighbor_signatures(a), engine.infer_semantics(a))
            for a in engine.tagging_asns()
        ],
    )
    step(
        "fig9",
        lambda: [
            engine.prefix_counts_by_rank(a) for a in engine.index.looking_glass_ases
        ],
    )
    step("verify_relationships", engine.verify_relationships)
    step("verify_sa", engine.verify_sa_prefixes)
    return results, timings


def run_analysis_benchmarks(scenarios: list[str], repeats: int) -> list[dict]:
    """Time the legacy vs. index-backed analyzer pass per scenario."""
    results = []
    for name in scenarios:
        print(f"[{name}] building dataset ...", file=sys.stderr)
        study = resolve_scenario(name).study(cache=StageCache())
        dataset = study.dataset()

        legacy_best = None
        legacy_timings: dict[str, float] = {}
        legacy_results: dict = {}
        for _ in range(repeats):
            print(f"[{name}] timing legacy analyzer pass ...", file=sys.stderr)
            legacy_results, timings = _legacy_analyzer_pass(dataset)
            total = sum(timings.values())
            if legacy_best is None or total < legacy_best:
                legacy_best, legacy_timings = total, timings

        engine_best = None
        engine_timings: dict[str, float] = {}
        engine_results: dict = {}
        for _ in range(repeats):
            print(f"[{name}] timing engine analyzer pass ...", file=sys.stderr)
            engine_results, timings = _engine_analyzer_pass(study)
            total = sum(timings.values())
            if engine_best is None or total < engine_best:
                engine_best, engine_timings = total, timings

        for step_name, legacy_value in legacy_results.items():
            if engine_results[step_name] != legacy_value:
                raise SystemExit(
                    f"analyzer divergence on {name!r}: step {step_name!r} differs "
                    "between the legacy pass and the engine pass"
                )
        speedup = round(legacy_best / engine_best, 2)
        print(
            f"[{name}] legacy {legacy_best:.2f}s, engine {engine_best:.2f}s "
            f"(index {engine_timings['index_build']:.2f}s) -> {speedup}x",
            file=sys.stderr,
        )
        results.append(
            {
                "scenario": name,
                "legacy_seconds": round(legacy_best, 4),
                "engine_seconds": round(engine_best, 4),
                "index_build_seconds": round(engine_timings["index_build"], 4),
                "speedup_vs_legacy": speedup,
                "legacy_steps": {k: round(v, 4) for k, v in legacy_timings.items()},
                "engine_steps": {k: round(v, 4) for k, v in engine_timings.items()},
            }
        )
    return results


# -- the warm-cache sweep suite -----------------------------------------------------


def _sweep_case_bytes(report) -> dict[str, bytes]:
    """The per-case report file contents of one sweep, keyed by spec."""
    return {
        case.spec: pathlib.Path(case.report_path).read_bytes()
        for case in report.cases
        if case.report_path
    }


def run_sweep_benchmarks(
    cases: list[str], workers: int, quick: bool
) -> list[dict]:
    """Time a sweep cold vs. warm over one shared artifact store.

    The cold pass starts from an empty store; the warm pass reuses it from
    a fresh sweep directory, so every case must be served from the durable
    ``report`` tier.  Byte-identity of every case report and a mid-sweep
    interrupt/resume are verified before any speedup is reported.
    """
    import tempfile

    from repro.session.sweep import SweepInterrupted, run_sweep

    results = []
    with tempfile.TemporaryDirectory(prefix="repro-sweep-bench-") as tmp:
        root = pathlib.Path(tmp)
        cache_dir = root / "cache"
        print(
            f"[sweep] cold pass: {len(cases)} cases, workers={workers} ...",
            file=sys.stderr,
        )
        cold = run_sweep(
            cases, cache_dir=cache_dir, sweep_dir=root / "cold", workers=workers
        )
        if not cold.ok:
            raise SystemExit(f"cold sweep failed: {cold.render()}")
        print(
            f"[sweep] cold: {cold.total_seconds:.2f}s; warm pass ...",
            file=sys.stderr,
        )
        warm = run_sweep(
            cases, cache_dir=cache_dir, sweep_dir=root / "warm", workers=workers
        )
        if warm.count("cached") != len(cases):
            raise SystemExit(
                f"warm sweep recomputed cases: {warm.to_json(indent=None)}"
            )
        if _sweep_case_bytes(cold) != _sweep_case_bytes(warm):
            raise SystemExit("warm sweep reports are not byte-identical to cold")

        # Resume correctness: interrupt a fresh sweep after a few cases,
        # then resume and require every earlier case to be skipped.  The
        # threshold must leave at least one case unfinished or the hook
        # never fires (possible with a short --scenario list).
        interrupt_after = min(2 if quick else 5, max(1, len(cases) - 1))
        resume_cache = root / "resume-cache"
        try:
            run_sweep(
                cases,
                cache_dir=resume_cache,
                workers=workers,
                fail_after=interrupt_after,
            )
            raise SystemExit("sweep interruption hook did not fire")
        except SweepInterrupted:
            pass
        resumed = run_sweep(cases, cache_dir=resume_cache, workers=workers)
        if not resumed.ok or resumed.count("resumed") < interrupt_after:
            raise SystemExit(
                f"sweep resume recomputed finished cases: "
                f"{resumed.to_json(indent=None)}"
            )

        speedup = round(cold.total_seconds / warm.total_seconds, 2)
        print(
            f"[sweep] warm: {warm.total_seconds:.2f}s -> {speedup}x "
            f"(resume skipped {resumed.count('resumed')} cases)",
            file=sys.stderr,
        )
        results.append(
            {
                "cases": len(cases),
                "case_specs": list(cases),
                "workers": workers,
                "experiments": "all",
                "cold_seconds": round(cold.total_seconds, 4),
                "warm_seconds": round(warm.total_seconds, 4),
                "speedup_warm_vs_cold": speedup,
                "warm_all_cached": True,
                "byte_identical_reports": True,
                "resume_interrupt_after": interrupt_after,
                "resume_skipped": resumed.count("resumed"),
            }
        )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=("propagation", "analysis", "sweep"),
        default="propagation",
        help="what to benchmark: the propagation engines (default), the "
        "analyzer pass (legacy repro.core vs the compiled measurement index) "
        "or cold-vs-warm multi-scenario sweeps over the artifact store",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="scenario preset or family sample ('family@seed', e.g. "
        "multihoming@7) to benchmark (repeatable; default: small, standard)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep-suite process-pool width (default: 1)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="repetitions per cell, best kept"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: force a single repeat of the given scenarios",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="benchmark small, standard and large (overrides --scenario)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="where to write the JSON report (default: "
        f"{DEFAULT_OUTPUT.name} / {DEFAULT_ANALYSIS_OUTPUT.name} per suite)",
    )
    args = parser.parse_args(argv)

    scenarios = args.scenarios or ["small", "standard"]
    if args.full:
        scenarios = ["small", "standard", "large"]
    repeats = 1 if args.quick else max(1, args.repeats)

    if args.suite != "sweep" and args.workers != 1:
        parser.error("--workers applies only to --suite sweep")
    if args.suite == "sweep":
        cases = args.scenarios or SWEEP_CASES
        if args.quick:
            cases = cases[: min(6, len(cases))]
        results = run_sweep_benchmarks(cases, args.workers, args.quick)
        output = args.output or DEFAULT_SWEEP_OUTPUT
    elif args.suite == "analysis":
        results = run_analysis_benchmarks(scenarios, repeats)
        output = args.output or DEFAULT_ANALYSIS_OUTPUT
    else:
        results = run_benchmarks(scenarios, repeats)
        output = args.output or DEFAULT_OUTPUT
    report = {
        "meta": {
            "suite": args.suite,
            "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "repeats": repeats,
            "quick": args.quick,
        },
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
