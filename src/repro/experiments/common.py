"""The persistence timeline shared by the Fig. 6 and Fig. 7 experiments.

Every other shared intermediate (SA-prefix reports, tagging ASes, the
Gao-inferred graph) is a query of the study's cached
:class:`~repro.analysis.engine.AnalysisEngine` (the ``analysis`` stage).
"""

from __future__ import annotations

import functools

from repro.net.asn import ASN
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.simulation.timeline import Snapshot, Timeline, TimelineParameters
from repro.topology.generator import GeneratorParameters, InternetGenerator


@functools.lru_cache(maxsize=4)
def persistence_snapshots(
    snapshot_count: int = 31, seed: int = 315
) -> tuple[ASN, tuple[Snapshot, ...], object]:
    """A memoised persistence timeline on a dedicated small Internet.

    The persistence study (Figs. 6 and 7) re-simulates the Internet once per
    snapshot, so it runs on a smaller topology than the main dataset.
    Returns ``(studied provider, snapshots, annotated graph)``.
    """
    internet = InternetGenerator(
        GeneratorParameters(
            seed=777, tier1_count=4, tier2_count=8, tier3_count=16, stub_count=90
        )
    ).generate()
    assignment = PolicyGenerator(PolicyParameters(seed=915)).generate(internet)
    provider = max(internet.tier1, key=internet.graph.degree)
    timeline = Timeline(
        internet,
        assignment,
        observed_ases=[provider],
        parameters=TimelineParameters(
            snapshot_count=snapshot_count,
            churn_probability=0.015,
            appear_probability=0.008,
            disappear_probability=0.005,
            seed=seed,
        ),
    )
    return provider, tuple(timeline.run()), internet.graph
