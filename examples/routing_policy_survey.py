#!/usr/bin/env python3
"""Survey the routing policies of a synthetic Internet (the paper in miniature).

Builds the small study dataset and walks through the paper's questions:

* import policies — how typical is LOCAL_PREF assignment, and how consistent
  is it with the next-hop AS (Tables 2/3, Fig. 2)?
* export policies toward providers — how prevalent are SA prefixes at the
  Tier-1s, and what causes them (Tables 5, 8, 9)?
* export policies toward peers — do peers announce everything (Table 10)?

Run with::

    python examples/routing_policy_survey.py
"""

from repro.core.causes import CauseAnalyzer
from repro.core.consistency import ConsistencyAnalyzer
from repro.core.export_policy import ExportPolicyAnalyzer
from repro.core.import_policy import ImportPolicyAnalyzer
from repro.core.peer_export import PeerExportAnalyzer
from repro.reporting.tables import ascii_table, format_percent
from repro.session import get_scenario


def main() -> None:
    dataset = get_scenario("small").study().dataset()
    graph = dataset.ground_truth_graph
    glasses = [dataset.looking_glass_of(asn) for asn in dataset.looking_glass_ases]

    # -- import policies -----------------------------------------------------
    import_analyzer = ImportPolicyAnalyzer(graph)
    consistency_analyzer = ConsistencyAnalyzer()
    rows = []
    for glass in glasses:
        typicality = import_analyzer.analyze_looking_glass(glass)
        consistency = consistency_analyzer.analyze_looking_glass(glass)
        rows.append(
            [
                f"AS{glass.asn}",
                typicality.comparable_prefixes,
                format_percent(typicality.percent_typical),
                format_percent(consistency.percent_consistent),
            ]
        )
    print("Import policies (LOCAL_PREF) at the Looking Glass ASes:")
    print(ascii_table(
        ["AS", "comparable prefixes", "% typical", "% next-hop-consistent"], rows
    ))
    print()

    # -- export policies toward providers -----------------------------------------
    export_analyzer = ExportPolicyAnalyzer(graph)
    cause_analyzer = CauseAnalyzer(graph)
    providers = dataset.internet.providers_under_study(3)
    rows = []
    for provider in providers:
        table = dataset.result.table_of(provider)
        report = export_analyzer.find_sa_prefixes(provider, table)
        causes = cause_analyzer.cause_breakdown(report, table)
        homing = cause_analyzer.homing_breakdown(report)
        rows.append(
            [
                f"AS{provider}",
                report.customer_prefix_count,
                report.sa_prefix_count,
                format_percent(report.percent_sa),
                causes.selective_count,
                format_percent(homing.percent_multihomed, 0),
            ]
        )
    print("Export policies toward providers (SA prefixes at the largest Tier-1s):")
    print(ascii_table(
        ["provider", "customer prefixes", "SA prefixes", "% SA",
         "selective announcing", "% multihomed origins"],
        rows,
    ))
    print()

    # -- export policies toward peers ---------------------------------------------------
    peer_analyzer = PeerExportAnalyzer(graph)
    rows = []
    for provider in providers:
        report = peer_analyzer.analyze(
            provider,
            dataset.result.table_of(provider),
            originated=dataset.internet.originated,
        )
        rows.append(
            [f"AS{provider}", report.peer_count, format_percent(report.percent_announcing, 0)]
        )
    print("Export policies toward peers:")
    print(ascii_table(["AS", "# peers", "% peers announcing all their prefixes"], rows))


if __name__ == "__main__":
    main()
