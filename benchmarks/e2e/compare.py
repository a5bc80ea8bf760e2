"""Compare two series of end-to-end benchmark runs with the pair rule.

Usage::

    python benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the ``bench.py --out`` lines of one commit (a JSON array of
the same objects is accepted too).  Runs are paired in file order per
workload, so record them alternately: parent, change, change, parent, ...
At least 10 pairs per workload are required.

For every (end-to-end metric, workload) the verdict is:

* ``gain`` — the change reads better in at least 90% of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` — the run-to-run spread (IQR over median) of either side
  exceeds the metric's bound, unless every change run reads better than
  every parent run;
* ``regression`` — the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` — otherwise.

Exit status: 0, or 1 when any pairing is a regression, or 2 when a workload
has fewer than 10 pairs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench import END_TO_END  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: pathlib.Path) -> list[dict]:
    """The result objects of one file (JSON lines or a JSON array)."""
    text = path.read_text()
    try:
        data = json.loads(text)
    except ValueError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return data if isinstance(data, list) else [data]


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def verdict(parent: list[float], change: list[float], bound: float) -> dict:
    """Apply the pair rule to one (metric, workload); lower is better."""
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if b < a)
    parent_median, parent_iqr = _spread(parent)
    change_median, change_iqr = _spread(change)
    spread = max(parent_iqr / parent_median, change_iqr / change_median)
    if wins >= WIN_SHARE * len(pairs) and parent_median - change_median > parent_iqr:
        outcome = "gain"
    elif spread > bound and not max(change) < min(parent):
        outcome = "unresolved"
    elif change_median > parent_median * (1 + bound):
        outcome = "regression"
    else:
        outcome = "within bound"
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "change": change_median / parent_median - 1,
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "verdict": outcome,
    }


def compare(parent_runs: list[dict], change_runs: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric); raises on too few pairs."""
    rows = []
    workloads = dict.fromkeys(run["workload"] for run in parent_runs + change_runs)
    for workload in workloads:
        parent = [run for run in parent_runs if run["workload"] == workload]
        change = [run for run in change_runs if run["workload"] == workload]
        count = min(len(parent), len(change))
        if count < MIN_PAIRS:
            raise ValueError(
                f"{workload}: {count} pair(s), the pair rule needs at least {MIN_PAIRS}"
            )
        for name, unit, bound in END_TO_END:
            row = verdict(
                [run["metrics"][name]["value"] for run in parent[:count]],
                [run["metrics"][name]["value"] for run in change[:count]],
                bound,
            )
            rows.append(dict(row, workload=workload, metric=name, unit=unit, bound=bound))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path, help="runs of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="runs of the change")
    args = parser.parse_args(argv)
    try:
        rows = compare(load_runs(args.parent), load_runs(args.change))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for row in rows:
        print(
            f"{row['workload']:16s} {row['metric']:12s} "
            f"{row['parent_median']:10.4f} -> {row['change_median']:10.4f} {row['unit']:3s} "
            f"({row['change']:+7.2%}, wins {row['wins']}/{row['pairs']}, "
            f"spread {row['spread']:.1%}, bound {row['bound']:.0%})  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
