#!/usr/bin/env python3
"""Sensitivity sweep over policy parameters — what the session API is for.

The paper's Section 4.3 argues its findings are robust to perturbations of
the pipeline; reproducing that kind of sensitivity analysis means building
*many* datasets that differ in exactly one stage.  With the staged
:class:`~repro.session.study.Study` the sweep pays topology generation once:
every ``study.with_(policy=...)`` variant shares the cached topology stage
and rebuilds only policies and everything downstream.

The script

1. sweeps ``selective_announcement_probability`` across five values and
   reports how the Tier-1 SA-prefix fraction (Table 5's headline number)
   responds, and
2. asserts via the stage-cache counters that the topology was built exactly
   once for all five datasets.

Run with::

    python examples/policy_sweep.py
"""

from dataclasses import replace

from repro.reporting.tables import ascii_table, format_percent
from repro.session import StageCache, get_scenario

SWEEP = (0.1, 0.25, 0.45, 0.65, 0.85)


def main() -> None:
    cache = StageCache()
    study = get_scenario("small").study(cache=cache)

    rows = []
    for probability in SWEEP:
        variant = study.with_(
            policy=replace(study.config.policy, selective_announcement_probability=probability)
        )
        reports = variant.analysis().sa_reports()
        customer_prefixes = sum(r.customer_prefix_count for r in reports.values())
        sa_prefixes = sum(r.sa_prefix_count for r in reports.values())
        rows.append(
            [
                format_percent(100 * probability, 0),
                customer_prefixes,
                sa_prefixes,
                format_percent(100.0 * sa_prefixes / max(1, customer_prefixes), 1),
            ]
        )

    print(ascii_table(
        [
            "P(selective announcement)",
            "customer prefixes",
            "SA prefixes",
            "% SA at the studied Tier-1s",
        ],
        rows,
        title=f"Policy sweep across {len(SWEEP)} configurations",
    ))

    topology = cache.stats_for("topology")
    assert topology.builds == 1, f"topology built {topology.builds} times, expected 1"
    assert topology.hits >= len(SWEEP) - 1
    print(
        f"\nstage cache: topology built {topology.builds}x "
        f"(+{topology.hits} cache hits) across {len(SWEEP)} datasets"
    )


if __name__ == "__main__":
    main()
