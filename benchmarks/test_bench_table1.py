"""Benchmark: reproduce Table 1 (dataset inventory)."""

from repro.session import get_scenario


def test_bench_table1(benchmark, run_experiment):
    result = run_experiment(benchmark, "table1")
    assert result.rows


def test_table1_inventory_includes_tier1_looking_glasses(benchmark, run_experiment, dataset):
    result = run_experiment(benchmark, "table1")
    looking_glass_rows = [row for row in result.rows if row[5] == "yes"]
    assert len(looking_glass_rows) == len(dataset.looking_glass_ases)
    tier1_lg = [row for row in looking_glass_rows if row[3] == 1]
    observation = get_scenario("standard").config().observation
    assert len(tier1_lg) >= observation.tier1_looking_glass_count
