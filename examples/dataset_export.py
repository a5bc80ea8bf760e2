#!/usr/bin/env python3
"""Export a study dataset to disk and analyse it from the files alone.

Downstream users often want the measurement artifacts, not the simulator:
MRT-style RIB dumps, ``show ip bgp`` text and an IRR database.  This example

1. builds the small study dataset,
2. exports it to ``./study-archive/`` (MRT per observed AS, Looking Glass
   text, RPSL, ground-truth CSVs),
3. loads the archive back — touching only the files — and
4. re-runs the SA-prefix inference on the loaded tables, confirming the
   result is identical to the in-memory analysis.

Run with::

    python examples/dataset_export.py [output-directory]
"""

import sys

from repro.core.export_policy import ExportPolicyAnalyzer
from repro.data.archive import export_dataset, load_dataset
from repro.reporting.tables import ascii_table
from repro.session import get_scenario


def main() -> None:
    output_dir = sys.argv[1] if len(sys.argv) > 1 else "study-archive"
    dataset = get_scenario("small").study().dataset()
    root = export_dataset(dataset, output_dir)
    print(f"Exported the study dataset to {root}/")
    print((root / "MANIFEST.txt").read_text())

    archive = load_dataset(root)
    provider = dataset.internet.providers_under_study(1)[0]

    live_report = ExportPolicyAnalyzer(dataset.ground_truth_graph).find_sa_prefixes(
        provider, dataset.result.table_of(provider)
    )
    disk_report = ExportPolicyAnalyzer(archive.graph).find_sa_prefixes(
        provider, archive.tables[provider]
    )
    rows = [
        ["in memory", live_report.customer_prefix_count, live_report.sa_prefix_count],
        ["from the archive", disk_report.customer_prefix_count, disk_report.sa_prefix_count],
    ]
    print(ascii_table(
        ["analysis input", "customer prefixes", "SA prefixes"],
        rows,
        title=f"SA-prefix inference at AS{provider}",
    ))
    assert disk_report.sa_prefix_set() == live_report.sa_prefix_set()
    print("The on-disk archive reproduces the in-memory analysis exactly.")


if __name__ == "__main__":
    main()
