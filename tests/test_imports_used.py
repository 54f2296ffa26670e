"""Every name a csg module imports is used in it, so a deletion leaves no
dead import behind. Checked on the syntax tree, without importing."""

from __future__ import annotations

import ast

import pytest
from test_py310_grammar import SOURCES


def unused_imports(source: str) -> list[str]:
    """The names the module's imports bind that it never reads. A name is
    read where it appears as an `ast.Name`, which covers the base of an
    attribute (`aes` in `aes.ctr_stream`) and annotations. `__future__`
    imports bind nothing."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(bound) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport sys\nfrom typing import Optional, NamedTuple\nsys.exit(Optional)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: NamedTuple"]
