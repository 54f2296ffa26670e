"""Loaded by pytest before either suite's own conftest, so before any csg
import: tests/ and bench/tests both run with it.

No bytecode in src, whatever the caller's environment: this process and
every gateway or vpnc process a test starts, which inherit the variable.
A src/csg/__pycache__ makes every later gateway process start about 1 MiB
smaller, which would skew a peak-RSS comparison between two checkouts."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
