"""Integration tests: every registered experiment runs and matches the paper's shape."""

import pytest
from helpers import get_experiment

from repro.exceptions import ExperimentError
from repro.experiments import all_experiments
from repro.experiments.registry import experiment_class
from repro.session import StageView, get_scenario


@pytest.fixture(scope="module")
def dataset():
    return get_scenario("small").study().dataset()


@pytest.fixture(scope="module", autouse=True)
def fast_persistence():
    """Shrink the persistence panels so fig6/fig7 stay quick in the test suite."""
    from repro.experiments.fig6 import Figure6Experiment
    from repro.experiments.fig7 import Figure7Experiment

    originals = (
        Figure6Experiment.month_snapshots,
        Figure6Experiment.day_snapshots,
        Figure7Experiment.month_snapshots,
        Figure7Experiment.day_snapshots,
    )
    Figure6Experiment.month_snapshots = 5
    Figure6Experiment.day_snapshots = 3
    Figure7Experiment.month_snapshots = 5
    Figure7Experiment.day_snapshots = 3
    yield
    (
        Figure6Experiment.month_snapshots,
        Figure6Experiment.day_snapshots,
        Figure7Experiment.month_snapshots,
        Figure7Experiment.day_snapshots,
    ) = originals


class TestRegistry:
    def test_all_expected_experiments_registered(self):
        identifiers = {experiment.experiment_id for experiment in all_experiments()}
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6", "table7",
            "table8", "table9", "table10", "table11",
            "fig2", "fig6", "fig7", "fig9", "case3", "ablations",
        }
        assert expected <= identifiers

    def test_get_experiment_unknown_id(self):
        with pytest.raises(ExperimentError):
            get_experiment("table99")

    def test_experiments_have_metadata(self):
        for experiment in all_experiments():
            assert experiment.title
            assert experiment.paper_reference


class TestEveryExperimentRuns:
    # The shared analysis engine is memoised on the dataset, but the stage
    # gate sits on `StageView.analysis` itself, so each experiment's declared
    # requires is genuinely exercised regardless of which view touched the
    # engine first.

    @pytest.mark.parametrize(
        "experiment_id",
        [e.experiment_id for e in all_experiments()],
    )
    def test_runs_and_renders(self, dataset, experiment_id):
        # Run through a view restricted to the declared requires, proving the
        # declaration is sufficient for the experiment's whole analysis.
        cls = experiment_class(experiment_id)
        experiment = cls()
        result = experiment.run(StageView(dataset, cls.requires))
        assert result.experiment_id == experiment_id
        assert result.headers
        assert result.rows, f"{experiment_id} produced no rows"
        rendered = result.render()
        assert experiment_id in rendered
        assert "+-" in rendered


class TestShapeMatchesPaper:
    def test_table2_typical_fractions_high(self, dataset):
        result = get_experiment("table2").run(dataset)
        percentages = [float(row[-1].rstrip("%")) for row in result.rows]
        assert all(p >= 90.0 for p in percentages)

    def test_table3_typical_fractions_high(self, dataset):
        result = get_experiment("table3").run(dataset)
        percentages = [float(row[-1].rstrip("%")) for row in result.rows]
        assert percentages and min(p for p in percentages) >= 75.0

    def test_table4_verification_high(self, dataset):
        result = get_experiment("table4").run(dataset)
        percentages = [float(row[-1].rstrip("%")) for row in result.rows]
        assert percentages
        assert sum(percentages) / len(percentages) > 80.0

    def test_table5_tier1s_have_sa_prefixes(self, dataset):
        result = get_experiment("table5").run(dataset)
        tier1_rows = [row for row in result.rows if row[1] == "yes"]
        assert tier1_rows
        assert any(row[3] > 0 for row in tier1_rows)

    def test_table8_multihomed_majority(self, dataset):
        result = get_experiment("table8").run(dataset)
        total_multi = sum(row[1] for row in result.rows)
        total_single = sum(row[2] for row in result.rows)
        assert total_multi > total_single

    def test_table9_selective_dominates(self, dataset):
        result = get_experiment("table9").run(dataset)
        total_selective = sum(row[4] for row in result.rows)
        total_other = sum(row[2] + row[3] for row in result.rows)
        assert total_selective > total_other

    def test_table10_most_peers_announce(self, dataset):
        result = get_experiment("table10").run(dataset)
        percentages = [float(row[2].rstrip("%")) for row in result.rows]
        assert all(p >= 50.0 for p in percentages)

    def test_fig2_high_consistency(self, dataset):
        result = get_experiment("fig2").run(dataset)
        percentages = [float(row[-1].rstrip("%")) for row in result.rows]
        assert all(p > 70.0 for p in percentages)
        panels = {row[0] for row in result.rows}
        assert panels == {"fig2a", "fig2b"}

    def test_fig6_sa_counts_present_every_snapshot(self, dataset):
        result = get_experiment("fig6").run(dataset)
        sa_counts = [row[3] for row in result.rows]
        totals = [row[2] for row in result.rows]
        assert all(0 <= sa <= total for sa, total in zip(sa_counts, totals))
        assert any(sa > 0 for sa in sa_counts)

    def test_fig7_rows_consistent(self, dataset):
        result = get_experiment("fig7").run(dataset)
        for row in result.rows:
            assert row[2] >= 0 and row[3] >= 0

    def test_fig9_provider_views_show_full_table_gap(self, dataset):
        result = get_experiment("fig9").run(dataset)
        by_view = {}
        for view, has_providers, rank, neighbor, count in result.rows:
            by_view.setdefault((view, has_providers), []).append(count)
        for (view, has_providers), counts in by_view.items():
            assert counts == sorted(counts, reverse=True)
            if has_providers == "yes":
                # The top announcer (a provider) sends far more than the median
                # neighbor — the "big gap" of the Appendix.
                assert counts[0] >= 5 * max(1, counts[len(counts) // 2])

    def test_case3_majority_not_exported(self, dataset):
        result = get_experiment("case3").run(dataset)
        exported = [float(row[3].rstrip("%")) for row in result.rows]
        not_exported = [float(row[4].rstrip("%")) for row in result.rows]
        assert sum(not_exported) > sum(exported)

    def test_ablations_include_three_dimensions(self, dataset):
        result = get_experiment("ablations").run(dataset)
        dimensions = {row[0] for row in result.rows}
        assert dimensions == {"relationships", "visibility", "vantage points"}


class TestCommandLine:
    def test_list_option(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out and "fig6" in out

    def test_run_single_experiment_small(self, capsys):
        from repro.cli import main

        assert main(["run", "table2", "--scenario", "small"]) == 0
        out = capsys.readouterr().out
        assert "Typical local preference" in out
        assert "+-" in out
