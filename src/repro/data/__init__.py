"""On-disk data formats and dataset assembly.

The paper's inputs are RouteViews MRT dumps, ``show ip bgp`` output from
Looking Glass servers, and the IRR/RADB RPSL database.  This subpackage
implements those formats (so the library ingests the same kind of artifacts a
user of the real data would feed it) and assembles the full study dataset
from a simulation:

* :mod:`repro.data.mrt` — a binary TABLE_DUMP-style RIB format with an
  encoder and decoder.
* :mod:`repro.data.show_ip_bgp` — the Cisco ``show ip bgp`` table listing
  Looking Glass servers return.
* :mod:`repro.data.rpsl` — an RPSL subset (aut-num objects with import /
  export attributes) and a synthetic IRR database with configurable
  staleness.
* :mod:`repro.data.dataset` — the :class:`~repro.data.dataset.StudyDataset`
  combining collector tables, Looking Glass views, the IRR and ground truth,
  mirroring the paper's Section 3 / Table 1 inventory.  Assembled from the
  staged :mod:`repro.session` pipeline.
"""

from repro.data.archive import ArchivedDataset, export_dataset, load_dataset
from repro.data.mrt import MrtReader, MrtWriter, RibEntryRecord
from repro.data.show_ip_bgp import format_show_ip_bgp_table, parse_show_ip_bgp_table
from repro.data.rpsl import AutNumObject, IrrDatabase, PolicyLine
from repro.data.dataset import StudyDataset

__all__ = [
    "ArchivedDataset",
    "AutNumObject",
    "IrrDatabase",
    "MrtReader",
    "MrtWriter",
    "PolicyLine",
    "RibEntryRecord",
    "StudyDataset",
    "export_dataset",
    "load_dataset",
    "format_show_ip_bgp_table",
    "parse_show_ip_bgp_table",
]
