"""repro.storage — the durable artifact store behind the stage cache.

Three layers, bottom up:

* :mod:`repro.storage.packing` — a deterministic tag-length-value binary
  format over a closed primitive universe (no hash-ordered containers), so
  equal artifacts always serialize to equal bytes under any
  ``PYTHONHASHSEED``.
* :mod:`repro.storage.store` — :class:`DiskStore`, the content-addressed
  on-disk tier: atomic writes, versioned headers, mismatches read as
  misses.
* :mod:`repro.storage.codecs` — one :class:`~repro.storage.codecs.StageCodec`
  per stored pipeline stage (topology, policies, propagation, irr)
  lowering its artifact to the primitive universe and raising it back from
  its bytes alone.

Version constants live in :mod:`repro.storage.versions`; every bump moves
the cache-key salt of :func:`repro.session.cache.fingerprint`, so stale
on-disk artifacts are never deserialized after a format change.

The codec module imports most of the pipeline and is therefore only pulled
in lazily (by :meth:`repro.session.study.Study` when a disk tier is
attached); import this package freely.
"""

from repro.storage.packing import pack, unpack
from repro.storage.store import DiskStore
from repro.storage.versions import CODEC_VERSIONS, SCHEMA_VERSION, version_salt

__all__ = [
    "CODEC_VERSIONS",
    "DiskStore",
    "SCHEMA_VERSION",
    "pack",
    "unpack",
    "version_salt",
]
