"""repro — reproduction of Wang & Gao, "On Inferring and Characterizing
Internet Routing Policies" (IMC 2003).

The front door is the **session API**: a staged, cacheable
:class:`~repro.session.study.Study` (``topology -> policies -> propagation
-> observation -> irr -> analysis``) with named scenario presets and an
experiment runner::

    from repro.session import get_scenario, run_suite

    study = get_scenario("small").study()
    report = run_suite(study, ["table5", "table9"])
    print(report.render())

``study.with_(policy=...)`` derives a variant that reuses every cached
upstream stage — a sensitivity sweep pays topology generation once.  The
same pipeline powers the CLI: ``python -m repro run --scenario small``.

The package is organised bottom-up:

* :mod:`repro.net` — prefixes, AS paths, radix trie, address allocation.
* :mod:`repro.bgp` — route attributes, routes, the Loc-RIB and the decision
  process.
* :mod:`repro.topology` — the annotated AS graph and the synthetic Internet
  generator.
* :mod:`repro.relationships` — AS-relationship inference baselines (Gao
  ToN'01 and a rank-based variant).
* :mod:`repro.simulation` — policy-aware BGP route propagation, collectors
  (RouteViews-style and Looking Glass), and multi-snapshot timelines.
* :mod:`repro.data` — on-disk formats (MRT-style dumps, ``show ip bgp`` text,
  RPSL/IRR) and the flat :class:`~repro.data.dataset.StudyDataset` view.
* :mod:`repro.session` — the staged Study pipeline, the two-tier
  content-addressed stage cache, scenario presets, the ``run_suite`` runner
  and the resumable ``run_sweep`` orchestrator.
* :mod:`repro.storage` — the durable artifact store: deterministic binary
  packing, per-stage codecs and the content-addressed disk tier shared
  across processes.
* :mod:`repro.analysis` — the compiled columnar measurement index and the
  one-pass analyzer engine the experiments query (the cached ``analysis``
  stage).
* :mod:`repro.core` — the paper's methods as reference analyzers:
  import-policy inference, SA-prefix (export-policy) inference,
  verification, cause attribution, peer export and community-based
  relationship verification.  Production runs :mod:`repro.analysis`; these
  analyzers are its test and fuzz oracles.
* :mod:`repro.experiments` — one module per table/figure of the paper, each
  declaring the pipeline stages it requires.
* :mod:`repro.reporting` — ASCII tables and series used by the experiments.
"""

__version__ = "2.0.0"

from repro.exceptions import (
    ASPathError,
    DataFormatError,
    ExperimentError,
    InferenceError,
    PolicyError,
    PrefixError,
    ReproError,
    SimulationError,
    StorageError,
    TopologyError,
)

__all__ = [
    "ASPathError",
    "DataFormatError",
    "ExperimentError",
    "InferenceError",
    "PolicyError",
    "PrefixError",
    "ReproError",
    "SimulationError",
    "StorageError",
    "TopologyError",
    "__version__",
]
