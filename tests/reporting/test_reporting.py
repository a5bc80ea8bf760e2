"""Tests for ASCII table and figure rendering."""

from repro.reporting.figures import ascii_series
from repro.reporting.tables import ascii_table, format_percent


class TestAsciiTable:
    def test_basic_rendering(self):
        text = ascii_table(
            ["AS", "% typical"],
            [["AS7018", "99.99%"], ["AS1", "99.994%"]],
            title="Table 2",
        )
        assert "Table 2" in text
        assert "| AS7018" in text
        assert text.count("+-") >= 3

    def test_numeric_right_alignment(self):
        text = ascii_table(["name", "count"], [["a", 5], ["bbbb", 12345]])
        lines = [line for line in text.splitlines() if line.startswith("| ")]
        data_lines = lines[1:]
        assert data_lines[0].endswith("    5 |")
        assert data_lines[1].endswith("12345 |")

    def test_handles_short_rows(self):
        text = ascii_table(["a", "b", "c"], [["x"]])
        assert "| x" in text

    def test_empty_rows(self):
        text = ascii_table(["a"], [])
        assert "| a |" in text

    def test_format_percent(self):
        assert format_percent(97.6) == "97.6%"
        assert format_percent(100.0, 2) == "100.00%"


class TestFigures:
    def test_ascii_series(self):
        text = ascii_series(
            [1, 2],
            {"all": [10.0, 12.0], "sa": [2.0, 3.0]},
            width=10,
            title="fig6",
        )
        assert "fig6" in text
        assert text.count("all") == 2
        assert text.count("sa") == 2
