"""Test-suite root conftest.

Makes the shared test helpers (``tests/strategies.py``, ``tests/helpers.py``
and ``tests/paper_scenarios.py``) importable from every test module
regardless of which subdirectory it lives in: pytest's
default import mode only puts each test file's own directory on
``sys.path``, so the suite-wide helper directory is added here once.
"""

import pathlib
import sys

_TESTS_DIR = str(pathlib.Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)
