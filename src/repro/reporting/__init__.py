"""Plain-text rendering of tables and figure series.

The experiment harness regenerates every table and figure of the paper as
rows of numbers; this subpackage turns those rows into readable ASCII tables
(:mod:`repro.reporting.tables`) and grouped ASCII bar series
(:mod:`repro.reporting.figures`) so that benchmark output can be compared
against the paper side by side.
"""

from repro.reporting.tables import ascii_table, format_percent
from repro.reporting.figures import ascii_series

__all__ = [
    "ascii_series",
    "ascii_table",
    "format_percent",
]
