"""Tests of the end-to-end benchmark: span arithmetic, the pair rule, the
BENCHMARK.json format limits, and a one-repetition smoke run on ``small``."""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench  # noqa: E402
import compare  # noqa: E402
from spans import Tracer, busy_by_name, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(span_id, parent, name, start, end):
    return {"run": "t", "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "counters": {}}


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(0, None, "run", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.inner", 2.0, 3.0),
        _span(3, 0, "b", 3.0, 6.0),   # overlaps a
        _span(4, 0, "c", 8.0, 12.0),  # outlives its parent: clipped at 10
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)
    assert busy_by_name(spans + [_span(5, 0, "b", 6.5, 7.0)])["b"] == pytest.approx(3.5)


def test_tracer_records_nesting_and_counters(tmp_path):
    tracer = Tracer("unit")
    with tracer.span("outer"):
        with tracer.span("inner") as counters:
            counters["rows"] = 3
    outer, inner = tracer.spans
    assert (outer["parent"], inner["parent"]) == (None, outer["id"])
    assert inner["counters"] == {"rows": 3}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert {tuple(sorted(line)) for line in lines} == {
        ("counters", "end", "id", "name", "parent", "run", "start")
    }


def _runs(workload, values):
    return [{"workload": workload, "metrics": {name: {"value": value}
                                                for name, _, _ in bench.END_TO_END}}
            for value in values]


def test_pair_rule_win_regression_and_unresolved():
    parent = [10.0 + 0.01 * i for i in range(12)]
    assert compare.verdict(parent, [v * 0.9 for v in parent], 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, [v * 1.3 for v in parent], 0.1)["verdict"] == "regression"
    assert compare.verdict(parent, [v * 1.05 for v in parent], 0.1)["verdict"] == "within bound"
    noisy = [5.0, 15.0] * 6
    assert compare.verdict(noisy, list(reversed(noisy)), 0.1)["verdict"] == "unresolved"
    # Every change run beating every parent run is resolved (no regression),
    # but not a gain: the medians differ by less than the parent's IQR.
    assert compare.verdict(noisy, [4.0] * 12, 0.1)["verdict"] == "within bound"

    rows = compare.compare(_runs("cold-large", parent), _runs("cold-large", parent))
    assert {row["verdict"] for row in rows} == {"within bound"}
    assert len(rows) == len(bench.END_TO_END)
    with pytest.raises(ValueError, match="at least 10"):
        compare.compare(_runs("w", parent[:9]), _runs("w", parent[:9]))


def test_benchmark_json_matches_the_spec_and_the_format_limits():
    committed = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    spec = bench.benchmark_spec()
    assert committed == spec
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_one_repetition_smoke_on_small(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "PROBES", 1)
    workload = bench.RunWorkload("cold-small", "smoke", disk=False, scenario="small")
    result = bench.measure(workload, 0, 0, True, tmp_path / "work", tmp_path / "traces")
    assert result["errors"] == []
    assert result["correct"]
    ops = len(bench.RUN_EXPERIMENTS)
    assert (result["attempted"], result["failed"]) == (2 * ops, 0)  # rep + traced run
    metrics = result["metrics"]
    assert metrics["wall_s"]["n"] == 1
    assert metrics["fill_s"]["value"] == metrics["wall_s"]["value"]
    assert 0 < metrics["setup_s"]["value"] < metrics["wall_s"]["value"]
    assert metrics["peak_rss_mb"]["value"] > 0
    assert set(metrics) == {name for name, _, _ in bench.END_TO_END} | {
        name for name, _, _ in bench.PER_LAYER
    }
    assert metrics["cache.propagation.misses"]["value"] == 1
    assert metrics["propagation.messages"]["value"] > 0
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    spans = [json.loads(line) for line in
             (tmp_path / "traces" / "cold-small-seed0.jsonl").read_text().splitlines()]
    names = {span["name"] for span in spans}
    assert {"run", *bench.STAGE_NAMES} <= names
    assert {f"experiment.{e}" for e in bench.RUN_EXPERIMENTS} <= names
