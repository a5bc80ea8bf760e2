"""Version constants of the durable artifact store.

Three version axes keep stale on-disk artifacts from ever being
deserialized after a format change:

* :data:`SCHEMA_VERSION` — the version of the packing format and the store
  file layout.  Bumped when :mod:`repro.storage.packing` or
  :mod:`repro.storage.store` change their byte-level encoding.
* :data:`CODEC_VERSIONS` — one version per pipeline stage codec.  Bumped
  when a stage's lowering (the shape of its primitive tree) changes.
* the ``repro`` package version — artifacts written by a different release
  are treated as absent.

All three participate in the cache-key salt
(:func:`repro.session.cache.fingerprint`), so a format change moves every
key: old files are simply never addressed again, and the store never has to
guess whether stale bytes are still decodable.  The store file header
additionally records the schema version, the per-stage codec version and
the machine byte order, and :meth:`repro.storage.store.DiskStore.read`
refuses mismatches — defence in depth for caches shared across checkouts.
"""

from __future__ import annotations

#: Version of the packing format and the store file layout.
SCHEMA_VERSION = 1

#: Per-stage codec versions (the lowering shape of each stage artifact).
#: ``report`` is the terminal tier: a sweep case's timing-masked suite JSON,
#: addressed by the full upstream key chain plus the experiment list.  The
#: observation and analysis stages are derived in memory and have none.
CODEC_VERSIONS: dict[str, int] = {
    "topology": 2,
    "policies": 2,
    "propagation": 2,
    "irr": 1,
    "report": 1,
}


def version_salt() -> str:
    """The cache-key salt covering every version axis.

    Returns:
        A stable string combining the ``repro`` release, the storage schema
        version and every per-stage codec version.  Any bump anywhere moves
        every content address.
    """
    from repro import __version__

    codecs = ",".join(f"{stage}v{version}" for stage, version in sorted(CODEC_VERSIONS.items()))
    return f"repro-{__version__}/schema{SCHEMA_VERSION}/{codecs}"
