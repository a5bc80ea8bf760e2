"""Seed-determinism regression: the same (family, seed) in two fresh processes.

The content-addressed stage cache keys on ``repr`` fingerprints of the
sampled :class:`~repro.session.stages.StudyConfig`; a family sampler that
leaked any per-process state (``PYTHONHASHSEED``-dependent iteration,
unseeded randomness, wall-clock) would silently poison those keys and make
"reproduce from (family, seed)" a lie.  Two *fresh interpreter* runs must
therefore print byte-identical config fingerprints and byte-identical
suite JSON.
"""

import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Prints one config fingerprint line per built-in family, then the full
#: (timing-masked) SuiteReport JSON of two experiments on one small sample.
_SCRIPT = """
from repro.session.cache import StageCache, fingerprint
from repro.session.scenarios import family_names, get_family
from repro.session.study import Study
from repro.session.suite import run_suite

for name in family_names():
    print(name, fingerprint(get_family(name).sample(11)))

study = Study(get_family("collector-size").sample(11), cache=StageCache())
report = run_suite(study, ["table5", "table10"], scenario="collector-size@11")
print(report.to_json(include_timing=False))
"""


def _fresh_process_output() -> str:
    result = subprocess.run(
        # -B: the env below drops PYTHONDONTWRITEBYTECODE, and bytecode
        # written into src/ would make later imports of the tree faster.
        [sys.executable, "-B", "-X", "utf8", "-c", _SCRIPT],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            # Different hash seeds per process: determinism must not depend
            # on dict/set iteration order of hash-randomised types.
            "PYTHONHASHSEED": "random",
        },
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def two_runs():
    return _fresh_process_output(), _fresh_process_output()


def test_config_fingerprints_are_process_independent(two_runs):
    first, second = two_runs
    first_prints = first.splitlines()[:5]
    second_prints = second.splitlines()[:5]
    assert first_prints == second_prints
    assert len(first_prints) == 5  # one line per built-in family


def test_suite_report_json_is_byte_identical(two_runs):
    first, second = two_runs
    assert first == second
