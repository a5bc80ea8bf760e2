"""Compiled measurement index and the one-pass analyzer engine.

This package is the "compile once, query many" layer between the observed
stage artifacts (the RIB and the IRR) and the paper's analyses:

* :mod:`repro.analysis.index` — :class:`MeasurementIndex` lowers the
  collector rows (read from the columnar RIB, keeping its prefix ids) into
  dense columnar arrays with interned collector paths and precomputed
  groupings, and holds the RIB and the IRR database the engine reads in
  place.
* :mod:`repro.analysis.engine` — :class:`AnalysisEngine` runs every
  analysis the experiments need as a one-pass query over the shared index
  and the RIB's Looking Glass and best rows, with results identical to the
  legacy :mod:`repro.core` analyzers, its test oracles (golden equivalence
  suite in ``tests/analysis/``).
* :mod:`repro.analysis.persistence` — the Figs. 6/7 persistence study
  (Section 5.1.4) over timeline snapshots, which have no index: the
  engine's Fig. 4 rule classifies each snapshot's RIB best rows.

The session layer exposes the engine as the cached ``ANALYSIS`` stage
(``Stage.ANALYSIS`` / ``StageView.analysis``); experiments declare it in
``requires`` and query the engine instead of re-walking raw tables.
"""

from repro.analysis.engine import AnalysisEngine
from repro.analysis.index import MeasurementIndex
from repro.analysis.persistence import (
    PersistenceSeries,
    UptimeDistribution,
    persistence_series,
    uptime_distribution,
)

__all__ = [
    "AnalysisEngine",
    "MeasurementIndex",
    "PersistenceSeries",
    "UptimeDistribution",
    "persistence_series",
    "uptime_distribution",
]
