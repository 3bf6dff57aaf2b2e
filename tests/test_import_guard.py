"""Importing cl4kit loads nothing beyond the package and the standard
library: every process that imports it, a benchmark's set-up included,
pays for each module it pulls in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cl4kit

SOURCE = Path(cl4kit.__file__).resolve().parent.parent

PROBE = "import sys; before = set(sys.modules); import cl4kit; print(sorted(set(sys.modules) - before))"


def test_import_loads_only_the_package_and_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = ast.literal_eval(out)
    assert "cl4kit" in loaded
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] != "cl4kit" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
