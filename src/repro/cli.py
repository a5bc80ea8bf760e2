"""Command-line interface of the repro package.

Usage::

    python -m repro run                          # every experiment, standard scenario
    python -m repro run table5 fig2 --scenario small
    python -m repro run --scenario large --json
    python -m repro run --scenario multihoming@7 # one scenario-family sample
    python -m repro run table5 --seed 42 --output-dir out/
    python -m repro run --cache-dir .repro-cache # persist stage artifacts on disk
    python -m repro list                         # experiment ids + required stages
    python -m repro scenarios                    # scenario presets + families
    python -m repro scenarios --json             # the same, machine-readable
    python -m repro index --scenario small       # compile + size the measurement index
    python -m repro fuzz --family peering-density --count 25 --seed 7
    python -m repro fuzz --count 5 --workers 4   # every family, 5 cases each
    python -m repro sweep --family multihoming --count 10 --workers 4
    python -m repro sweep standard large --cache-dir /shared/cache
    python -m repro sweep ... --retries 3 --case-timeout 300  # chaos hardening
    python -m repro chaos --seed 7               # fault-injection invariants
    python -m repro cache stats                  # disk-tier artifact counts
    python -m repro cache clear                  # drop the disk tier
    python -m repro lint                         # static analysis over src/ + scripts/
    python -m repro lint --baseline              # enforce the committed lint baseline
    python -m repro lint --list-rules            # the rule catalogue

``--cache-dir`` (or the ``REPRO_CACHE_DIR`` environment variable) attaches
the durable artifact store (see ``docs/storage.md``): stage artifacts are
persisted once and shared by every later process.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.exceptions import ReproError
from repro.session.cache import CACHE_DIR_ENV, StageCache
from repro.session.scenarios import all_families, all_scenarios, resolve_scenario
from repro.session.suite import SuiteReport, run_suite
from repro.storage.store import DiskStore

#: Default disk-tier directory of cache-aware commands when neither
#: ``--cache-dir`` nor ``REPRO_CACHE_DIR`` is set.
DEFAULT_CACHE_DIR = ".repro-cache"


def _cache_dir_from(args: argparse.Namespace, *, required: bool = False) -> str | None:
    """Resolve the disk-tier directory: flag, then env, then default.

    ``required=True`` (sweep, cache) falls back to :data:`DEFAULT_CACHE_DIR`;
    otherwise ``None`` keeps the command memory-only.
    """
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(CACHE_DIR_ENV)
    if cache_dir is None and required:
        cache_dir = DEFAULT_CACHE_DIR
    return cache_dir


def _study_cache(args: argparse.Namespace) -> StageCache | None:
    """A disk-backed stage cache when a cache dir is configured, else ``None``.

    ``None`` keeps the command memory-only: the scenario's study uses the
    process-wide in-memory cache.
    """
    cache_dir = _cache_dir_from(args)
    if cache_dir is None:
        return None
    return StageCache(disk=DiskStore(cache_dir))


def _add_cache_dir_option(
    parser: argparse.ArgumentParser, *, required: bool = False
) -> None:
    """Attach the shared ``--cache-dir`` option to a subcommand.

    ``required`` mirrors :func:`_cache_dir_from`: sweep and cache always
    have a disk tier (falling back to :data:`DEFAULT_CACHE_DIR`), the other
    commands stay in-memory unless a directory is configured.
    """
    fallback = (
        f"else {DEFAULT_CACHE_DIR}/" if required else "else in-memory only"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist stage artifacts in this durable cache directory "
        f"(default: ${CACHE_DIR_ENV} if set, {fallback})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables and figures of Wang & Gao (IMC 2003).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run experiments against a scenario")
    run.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help="experiment identifiers to run (default: all)",
    )
    run.add_argument(
        "--scenario",
        default="standard",
        help="scenario preset or family sample ('family@seed') to run against "
        "(see 'scenarios'; default: standard)",
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="derive every stage seed from this value (default: the scenario's seeds)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the structured SuiteReport as JSON instead of ASCII tables",
    )
    run.add_argument(
        "--output-dir",
        type=pathlib.Path,
        default=None,
        help="also write per-experiment .txt tables and suite.json to this directory",
    )
    _add_cache_dir_option(run)

    commands.add_parser("list", help="list experiment identifiers and required stages")

    scenarios = commands.add_parser(
        "scenarios", help="list scenario presets and scenario families"
    )
    scenarios.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the presets and families as JSON instead of aligned text",
    )

    index = commands.add_parser(
        "index",
        help="compile a scenario's measurement index and print its size counters",
    )
    index.add_argument(
        "--scenario",
        default="standard",
        help="scenario preset or family sample ('family@seed') to compile "
        "(default: standard)",
    )
    index.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the counters as JSON instead of aligned text",
    )
    _add_cache_dir_option(index)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzz: sample scenario families, run fast-vs-legacy "
        "propagation and indexed-vs-legacy analysis, check paper invariants",
    )
    fuzz.add_argument(
        "--family",
        action="append",
        dest="families",
        metavar="NAME",
        help="scenario family to sample (repeatable; default: every family)",
    )
    fuzz.add_argument(
        "--count",
        type=int,
        default=5,
        help="cases per family; case i uses seed SEED+i (default: 5)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=7,
        help="base case seed (default: 7)",
    )
    fuzz.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width for independent cases (default: 1)",
    )
    fuzz.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the structured FuzzReport as JSON instead of the summary",
    )
    _add_cache_dir_option(fuzz)

    sweep = commands.add_parser(
        "sweep",
        help="run many scenario cases over one shared artifact store, with a "
        "resumable per-case manifest",
    )
    sweep.add_argument(
        "cases",
        nargs="*",
        metavar="case",
        help="scenario presets or 'family@seed' samples to sweep",
    )
    sweep.add_argument(
        "--family",
        action="append",
        dest="families",
        metavar="NAME",
        help="expand a scenario family into --count samples (repeatable)",
    )
    sweep.add_argument(
        "--count",
        type=int,
        default=5,
        help="samples per expanded family; sample i uses seed SEED+i (default: 5)",
    )
    sweep.add_argument(
        "--seed",
        type=int,
        default=0,
        help="first sample seed of each expanded family (default: 0)",
    )
    sweep.add_argument(
        "-e",
        "--experiment",
        action="append",
        dest="experiments",
        metavar="ID",
        help="experiment id each case runs (repeatable; default: all)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width for independent cases (default: 1)",
    )
    sweep.add_argument(
        "--sweep-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="manifest/report directory (default: derived under the cache dir, "
        "so re-running the same sweep resumes it)",
    )
    sweep.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore an existing manifest and recompute every case",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts a crashing case gets (exponential backoff) before "
        "it is quarantined (default: 2; deterministic errors never retry)",
    )
    sweep.add_argument(
        "--case-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget; an overrunning attempt is "
        "abandoned, counted as a failure and retried (pool mode only)",
    )
    sweep.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="activate a deterministic fault-injection plan (inline JSON or a "
        "JSON file; see docs/robustness.md) for this sweep and its workers",
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the structured SweepReport as JSON instead of the summary",
    )
    _add_cache_dir_option(sweep, required=True)

    chaos = commands.add_parser(
        "chaos",
        help="run a sweep under a seeded fault-injection plan and assert the "
        "robustness invariants (termination, resume, report byte-identity)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="drives the case list, the fault schedule and the kill point "
        "(default: 0)",
    )
    chaos.add_argument(
        "--count",
        type=int,
        default=3,
        help="number of seed-derived cases to sweep (default: 3)",
    )
    chaos.add_argument(
        "-e",
        "--experiment",
        action="append",
        dest="experiments",
        metavar="ID",
        help="experiment id each case runs (repeatable; default: table2, table5)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=2,
        help="pool width of the chaotic sweep; >= 2 exercises worker-kill "
        "recovery (default: 2)",
    )
    chaos.add_argument(
        "--dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="scratch directory (default: a fresh temp dir, removed afterwards)",
    )
    chaos.add_argument(
        "--keep",
        action="store_true",
        help="leave the scratch directory behind for inspection",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the structured ChaosReport as JSON instead of the summary",
    )

    cache = commands.add_parser(
        "cache", help="inspect or clear the durable artifact store"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="per-stage artifact counts and sizes of the disk tier"
    )
    cache_stats.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the counters as JSON instead of aligned text",
    )
    _add_cache_dir_option(cache_stats, required=True)
    cache_clear = cache_commands.add_parser(
        "clear", help="delete every artifact file of the disk tier"
    )
    _add_cache_dir_option(cache_clear, required=True)

    from repro.devtools.lint import build_parser as build_lint_parser

    build_lint_parser(
        commands.add_parser(
            "lint",
            help="static analysis: determinism, codec-drift and pool-safety rules "
            "(see docs/linting.md)",
        )
    )
    return parser


def _command_run(args: argparse.Namespace) -> int:
    study = resolve_scenario(args.scenario).study(cache=_study_cache(args))
    if args.seed is not None:
        study = study.seeded(args.seed)
    report = run_suite(study, args.experiments or None, scenario=args.scenario)
    if args.as_json:
        print(report.to_json())
    else:
        print(report.render())
    if args.output_dir is not None:
        _write_outputs(report, args.output_dir)
    return 0


def _write_outputs(report: SuiteReport, output_dir: pathlib.Path) -> None:
    output_dir.mkdir(parents=True, exist_ok=True)
    for experiment in report.experiments:
        path = output_dir / f"{experiment.experiment_id}.txt"
        path.write_text(experiment.render() + "\n")
    (output_dir / "suite.json").write_text(report.to_json() + "\n")
    print(f"wrote {len(report.experiments)} tables + suite.json to {output_dir}/",
          file=sys.stderr)


def _command_index(args: argparse.Namespace) -> int:
    import json
    import time

    study = resolve_scenario(args.scenario).study(cache=_study_cache(args))
    started = time.perf_counter()
    engine = study.analysis()
    build_seconds = time.perf_counter() - started
    stats = engine.index.stats()
    if args.as_json:
        print(json.dumps({**stats, "build_seconds": round(build_seconds, 4)}, indent=2))
        return 0
    print(f"measurement index of scenario {args.scenario!r} "
          f"(built in {build_seconds:.2f}s incl. upstream stages):")
    width = max(len(name) for name in stats)
    for name, value in stats.items():
        print(f"  {name:{width}s} {value}")
    return 0


def _command_list() -> int:
    from repro.experiments.registry import all_experiments

    for experiment in all_experiments():
        stages = ",".join(sorted(stage.value for stage in experiment.requires)) or "-"
        print(f"{experiment.experiment_id:10s} [{stages}] {experiment.title}")
    return 0


def _command_scenarios(args: argparse.Namespace) -> int:
    import json

    scenarios = all_scenarios()
    families = all_families()
    if args.as_json:
        print(
            json.dumps(
                {
                    "scenarios": [
                        {"name": scenario.name, "description": scenario.description}
                        for scenario in scenarios
                    ],
                    "families": [
                        {
                            "name": family.name,
                            "description": family.description,
                            "parameter": family.parameter,
                        }
                        for family in families
                    ],
                },
                indent=2,
            )
        )
        return 0
    print("scenario presets:")
    for scenario in scenarios:
        print(f"  {scenario.name:20s} {scenario.description}")
    print()
    print("scenario families (sample with --scenario NAME@SEED or 'fuzz --family'):")
    for family in families:
        print(f"  {family.name:20s} {family.description}")
        print(f"  {'':20s}   {family.parameter}")
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_fuzz

    report = run_fuzz(
        args.families,
        count=args.count,
        seed=args.seed,
        workers=args.workers,
        cache_dir=_cache_dir_from(args),
    )
    if args.as_json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.session.sweep import SweepInterrupted, expand_case_specs, run_sweep

    specs = expand_case_specs(
        args.cases, args.families, count=args.count, seed=args.seed
    )
    sweep_kwargs = {}
    if args.retries is not None:
        sweep_kwargs["retries"] = args.retries
    try:
        report = run_sweep(
            specs,
            cache_dir=_cache_dir_from(args, required=True),
            sweep_dir=args.sweep_dir,
            experiments=args.experiments,
            workers=args.workers,
            resume=not args.no_resume,
            case_timeout=args.case_timeout,
            fault_plan=args.fault_plan,
            **sweep_kwargs,
        )
    except SweepInterrupted as interruption:
        print(f"sweep interrupted: {interruption}", file=sys.stderr)
        return 3
    if args.as_json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _command_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    report = run_chaos(
        args.seed,
        count=args.count,
        experiments=args.experiments,
        workers=args.workers,
        root=args.dir,
        keep=args.keep,
    )
    if args.as_json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _command_cache(args: argparse.Namespace) -> int:
    import json

    store = DiskStore(_cache_dir_from(args, required=True))
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"cleared {removed} artifact file(s) under {store.root}/")
        return 0
    # The memory tier is per-process (see StageCache.stats for in-process
    # counters); a standalone CLI invocation can only inspect the disk tier.
    stats = store.stats()
    health = store.health()
    if args.as_json:
        print(
            json.dumps(
                {"cache_dir": str(store.root), "disk": stats, "health": health},
                indent=2,
            )
        )
        return 0
    print(f"disk tier under {store.root}/:")
    if not stats:
        print("  (empty)")
    for stage, counters in stats.items():
        print(
            f"  {stage:12s} {counters['artifacts']:6d} artifact(s) "
            f"{counters['bytes']:12d} bytes"
        )
    print(
        f"  health: degraded={'yes' if health['degraded'] else 'no'} "
        f"write_failures={health['write_failures']} "
        f"quarantined={health['quarantined_files']} file(s)"
    )
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import run_lint

    return run_lint(args)


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro``."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "list":
            return _command_list()
        if args.command == "index":
            return _command_index(args)
        if args.command == "fuzz":
            return _command_fuzz(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "chaos":
            return _command_chaos(args)
        if args.command == "cache":
            return _command_cache(args)
        if args.command == "lint":
            return _command_lint(args)
        return _command_scenarios(args)
    except BrokenPipeError:  # e.g. `python -m repro run | head`
        return 0
    except ReproError as error:  # unknown scenario/experiment, bad workers, ...
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
