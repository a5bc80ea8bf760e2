"""Golden byte-identity: stored artifacts and the built index, across interpreters.

Two fresh Python processes, launched with *different* randomized
``PYTHONHASHSEED`` values, build the same tiny study and print the SHA-256
of every stored stage's encoded artifact and of the measurement index —
prefix and path tables, collapsed paths, collector columns and the
insertion order of every grouping.  The digests must match exactly — the
property that makes the shared disk tier trustworthy across processes,
machines in a fleet, and the sweep orchestrator's byte-identical reports.

The index is a derived stage with no codec, so each process also builds it
a second time over stages decoded from a disk store: that digest must equal
the freshly built one, which pins the ``sorted(set(...))`` ordering of the
by-member grouping that the DET001 lint rule guards.
"""

import os
import pathlib
import subprocess
import sys

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

_SCRIPT = """
import hashlib
import tempfile
from repro.session.cache import StageCache, fingerprint
from repro.session.stages import ObservationParameters, Stage, StudyConfig
from repro.session.study import Study
from repro.storage.codecs import codec_for
from repro.storage.store import DiskStore
from repro.topology.generator import GeneratorParameters

config = StudyConfig(
    topology=GeneratorParameters(
        seed=3, tier1_count=3, tier2_count=4, tier3_count=6, stub_count=25
    ),
    observation=ObservationParameters(
        looking_glass_count=4, tier1_looking_glass_count=2,
        collector_vantage_count=6,
    ),
)


def index_digest(index):
    state = (
        [(p.network, p.length) for p in index.prefixes],
        index.paths,
        index.collapsed,
        list(index.path_origin),
        list(index.col_vantage), list(index.col_prefix), list(index.col_path),
        list(index.rows_by_prefix.items()),
        list(index.rows_by_member.items()),
        sorted(index.adjacency),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


study = Study(config, cache=StageCache())
for stage in Stage:
    codec = codec_for(stage.value)
    if codec is not None:
        data = codec.encode(getattr(study, stage.value)())
        print(stage.value, hashlib.sha256(data).hexdigest())
    print(stage.value + "-key", study.stage_key(stage))
print("index", index_digest(study.analysis().index))
with tempfile.TemporaryDirectory() as root:
    Study(config, cache=StageCache(disk=DiskStore(root))).analysis()
    warm = Study(config, cache=StageCache(disk=DiskStore(root)))
    print("index-over-decoded-stages", index_digest(warm.analysis().index))
    assert warm.cache.stats_for("propagation").disk_hits == 1
print("config-fingerprint", fingerprint(config))
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CACHE_DIR", None)
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_encoded_artifacts_byte_identical_across_interpreters():
    first = _run("1")
    second = _run("4242")
    assert first == second
    lines = dict(line.split() for line in first.strip().splitlines())
    # Every stored stage produced a digest, every stage a key line.
    assert {"topology", "policies", "propagation", "irr"} <= set(lines)
    assert "observation" not in lines and "analysis" not in lines
    assert len(lines) == 4 + 6 + 3
    # The index rebuilt over decoded stages is the freshly built index.
    assert lines["index"] == lines["index-over-decoded-stages"]
