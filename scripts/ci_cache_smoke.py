"""Warm-cache and sweep-resume smoke checks (``python -m scripts.ci_cache_smoke``).

Two end-to-end properties of the durable artifact store, exercised the way
CI (and a skeptical developer) would:

1. **Warm cache** — the small suite runs twice against one shared
   ``--cache-dir``.  The second run must decode every stored stage
   (topology, policies, propagation, irr) from the disk tier with zero
   builds, rebuild the derived observation and analysis stages once each
   from them, and produce a timing-masked suite JSON byte-identical to the
   first run's.
2. **Sweep resume** — a sweep is killed mid-flight (deterministically, via
   the ``REPRO_SWEEP_FAIL_AFTER`` hook, in a separate process so the crash
   is real) and then re-run with the same arguments.  The resumed sweep
   must skip every case the manifest recorded and complete the rest, and
   the final manifest must cover every case.

Pure standard library; exits non-zero with a message on the first failure.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.session.cache import StageCache  # noqa: E402
from repro.session.scenarios import get_scenario  # noqa: E402
from repro.session.stages import Stage  # noqa: E402
from repro.session.suite import run_suite  # noqa: E402
from repro.storage.codecs import codec_for  # noqa: E402
from repro.storage.store import DiskStore  # noqa: E402

#: Small, fast sweep cases for the resume check.
SWEEP_CASES = ["collector-size@0", "collector-size@1", "multihoming@0"]


def check_warm_cache(cache_dir: pathlib.Path) -> None:
    """Run the small suite twice over one store; assert full disk reuse."""
    disk = DiskStore(cache_dir)
    cold_study = get_scenario("small").study(cache=StageCache(disk=disk))
    cold = run_suite(cold_study, scenario="small").to_json(include_timing=False)

    warm_study = get_scenario("small").study(cache=StageCache(disk=disk))
    warm = run_suite(warm_study, scenario="small").to_json(include_timing=False)

    for stage in Stage:
        stats = warm_study.cache.stats_for(stage.value)
        if codec_for(stage.value) is None:
            # A derived stage: built once, in memory, from the stored ones.
            if stats.misses != 1 or stats.disk_hits:
                raise SystemExit(
                    f"warm run built derived stage {stage.value!r} {stats.misses} "
                    f"time(s) with {stats.disk_hits} disk hit(s), expected one build"
                )
            continue
        if stats.misses:
            raise SystemExit(
                f"warm run rebuilt stage {stage.value!r} "
                f"({stats.misses} build(s)) instead of reading the disk tier"
            )
        if stats.disk_hits < 1:
            raise SystemExit(f"warm run never touched the disk tier for {stage.value!r}")
    if cold != warm:
        raise SystemExit("warm-run suite JSON differs from the cold run")
    print(
        "warm-cache check ok: stored stages disk-hit, observation and analysis "
        "rebuilt from them, reports byte-identical"
    )


def check_sweep_resume(cache_dir: pathlib.Path) -> None:
    """Kill a sweep mid-flight in a child process, resume, verify manifest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SWEEP_FAIL_AFTER"] = "1"
    command = [
        sys.executable, "-m", "repro", "sweep", *SWEEP_CASES,
        "-e", "table2", "--cache-dir", str(cache_dir),
    ]
    interrupted = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=600
    )
    if interrupted.returncode != 3:
        raise SystemExit(
            f"interrupted sweep exited with {interrupted.returncode}, expected 3:\n"
            f"{interrupted.stderr}"
        )

    env.pop("REPRO_SWEEP_FAIL_AFTER")
    resumed = subprocess.run(
        command + ["--json"], env=env, capture_output=True, text=True, timeout=600
    )
    if resumed.returncode != 0:
        raise SystemExit(f"resumed sweep failed:\n{resumed.stderr}")
    report = json.loads(resumed.stdout)
    if report["counts"]["resumed"] < 1:
        raise SystemExit(f"resume recomputed finished cases: {report['counts']}")

    manifests = list((cache_dir / "sweeps").glob("*/manifest.json"))
    if len(manifests) != 1:
        raise SystemExit(f"expected exactly one sweep manifest, found {len(manifests)}")
    manifest = json.loads(manifests[0].read_text())
    missing = set(SWEEP_CASES) - set(manifest["cases"])
    if missing:
        raise SystemExit(f"manifest incomplete after resume: missing {sorted(missing)}")
    print(
        f"sweep-resume check ok: {report['counts']['resumed']} case(s) resumed, "
        "manifest complete"
    )


def main() -> int:
    """Run both checks inside a temporary store."""
    with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as tmp:
        root = pathlib.Path(tmp)
        check_warm_cache(root / "warm-cache")
        check_sweep_resume(root / "sweep-cache")
    return 0


if __name__ == "__main__":
    sys.exit(main())
