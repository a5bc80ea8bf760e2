"""Regression: the DET001 ``sorted(set(...))`` fix keeps the index data-pure.

``MeasurementIndex._build_collector`` groups collector rows by AS-path
member; the DET001 fix made it iterate ``sorted(set(collapsed))`` so the
``rows_by_member`` insertion order is a pure function of the data rather
than of set bucket layout.  The index is a derived stage, so its "decode"
is a rebuild over stages decoded from the disk tier.  These tests pin the
property the fix protects: the freshly built index and the one rebuilt over
disk-decoded stages agree exactly, and re-encoding every decoded stored
artifact reproduces the original bytes.
"""

from repro.session.cache import StageCache
from repro.session.stages import Stage
from repro.session.study import Study
from repro.storage.codecs import codec_for
from repro.storage.store import DiskStore

STORED = tuple(stage.value for stage in Stage if codec_for(stage.value) is not None)


def _warm_study(tiny_study, tmp_path):
    """A study whose stored stages all come from a filled disk tier."""
    disk = DiskStore(tmp_path)
    Study(tiny_study.config, cache=StageCache(disk=disk)).analysis()
    return Study(tiny_study.config, cache=StageCache(disk=disk))


def test_member_grouping_identical_between_build_and_decode(tiny_study, tmp_path):
    fresh = tiny_study.analysis()
    warm = _warm_study(tiny_study, tmp_path)
    loaded = warm.analysis()
    assert warm.cache.stats_for("propagation").disk_hits == 1
    assert warm.cache.stats_for("propagation").builds == 0
    assert loaded.index.rows_by_member == fresh.index.rows_by_member
    assert list(loaded.index.rows_by_member) == list(fresh.index.rows_by_member)
    assert loaded.index.rows_by_prefix == fresh.index.rows_by_prefix
    assert loaded.index.adjacency == fresh.index.adjacency


def test_reencoding_decoded_artifact_is_byte_identical(tiny_study, tmp_path):
    warm = _warm_study(tiny_study, tmp_path)
    assert "propagation" in STORED
    for stage in STORED:
        codec = codec_for(stage)
        fresh = getattr(tiny_study, stage)()
        loaded = getattr(warm, stage)()
        assert warm.cache.stats_for(stage).disk_hits == 1, stage
        assert codec.encode(loaded) == codec.encode(fresh), stage
