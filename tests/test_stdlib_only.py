"""csg stays stdlib-only, as pyproject.toml's `dependencies = []` says."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# imports every csg module, then prints the top-level names of all loaded
# modules; it lists the package with os.listdir, since pkgutil.iter_modules
# would load inspect itself
PROBE = """
import importlib, json, os, sys
sys.path.insert(0, sys.argv[1])
import csg
for file in sorted(os.listdir(csg.__path__[0])):
    if file.endswith(".py") and file != "__init__.py":
        importlib.import_module("csg." + file[:-3])
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


@pytest.fixture(scope="module")
def loaded():
    """The top-level names of the modules a fresh interpreter holds once it
    has imported every csg module."""
    # -I ignores PYTHONPATH and the user site; -S skips site-packages and the
    # .pth hooks that would preload third-party modules before the probe runs;
    # -B writes no bytecode into src, which -I would otherwise let it do
    # whatever PYTHONDONTWRITEBYTECODE says
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout)) - {"__main__"}


def test_every_csg_module_imports_only_the_standard_library(loaded):
    assert "csg" in loaded
    assert sorted(loaded - {"csg"} - sys.stdlib_module_names) == []


def test_no_csg_module_loads_dataclasses_or_inspect(loaded):
    # dataclasses imports inspect, which brings ast, dis and tokenize: about
    # 1 MiB of every gateway process's resident memory
    assert sorted(loaded & {"dataclasses", "inspect"}) == []
