#!/usr/bin/env python3
"""Persistence of SA prefixes under policy churn (paper Section 5.1.4).

Simulates a week of daily snapshots of a small Internet whose origin ASes
occasionally change their selective-announcement pattern, then reports, for
the largest Tier-1:

* the per-snapshot totals (the Fig. 6 series), and
* how many ever-SA prefixes remained SA in every snapshot they appeared in
  vs. shifted to non-SA at some point (the Fig. 7 split).

Run with::

    python examples/persistence_study.py
"""

from repro.analysis.persistence import persistence_series, uptime_distribution
from repro.reporting.figures import ascii_series
from repro.reporting.tables import ascii_table, format_percent
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.simulation.timeline import Timeline, TimelineParameters
from repro.topology.generator import GeneratorParameters, InternetGenerator

SNAPSHOTS = 7


def main() -> None:
    internet = InternetGenerator(
        GeneratorParameters(seed=8, tier1_count=4, tier2_count=8, tier3_count=14, stub_count=80)
    ).generate()
    assignment = PolicyGenerator(PolicyParameters(seed=23)).generate(internet)
    provider = max(internet.tier1, key=internet.graph.degree)

    timeline = Timeline(
        internet,
        assignment,
        observed_ases=[provider],
        parameters=TimelineParameters(
            snapshot_count=SNAPSHOTS,
            churn_probability=0.15,
            appear_probability=0.03,
            disappear_probability=0.05,
            seed=99,
        ),
    )
    snapshots = timeline.run()

    series = persistence_series(snapshots, provider, internet.graph)
    print(f"Prefixes observed at AS{provider} over {SNAPSHOTS} daily snapshots:")
    print(
        ascii_series(
            [index + 1 for index in series.snapshot_indices],
            {
                "all prefixes": [float(v) for v in series.all_prefix_counts],
                "SA prefixes ": [float(v) for v in series.sa_prefix_counts],
            },
            width=40,
        )
    )
    print()

    distribution = uptime_distribution(snapshots, provider, internet.graph)
    rows = [
        [uptime, remaining, shifting]
        for uptime, remaining, shifting in distribution.histogram()
        if remaining or shifting
    ]
    print("SA-prefix uptime (Fig. 7 style):")
    print(ascii_table(["uptime (days)", "remaining as SA", "shifted to non-SA"], rows))
    print(
        f"{format_percent(distribution.percent_shifting)} of ever-SA prefixes shifted "
        "to non-SA during the period."
    )


if __name__ == "__main__":
    main()
