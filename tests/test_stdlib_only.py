"""csg stays stdlib-only, as pyproject.toml's `dependencies = []` says."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# imports every csg module, then prints the top-level names of all loaded modules
PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import csg
for info in pkgutil.iter_modules(csg.__path__):
    importlib.import_module("csg." + info.name)
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_every_csg_module_imports_only_the_standard_library():
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
    loaded = set(json.loads(result.stdout)) - {"__main__"}
    assert "csg" in loaded
    assert sorted(loaded - {"csg"} - sys.stdlib_module_names) == []
