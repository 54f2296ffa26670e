"""csg declares `requires-python = ">=3.10"`; its sources must parse as 3.10."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "csg").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_with_python_310_grammar(path):
    """Checks the 3.10 grammar only (an `except*` clause fails here). It does
    not check library APIs: a call to something 3.10 lacks, such as
    `tomllib` or `datetime.UTC`, still passes."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_sources_found():
    assert SOURCES
