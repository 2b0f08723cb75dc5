"""The library runs on the standard library alone.

Every layer is imported in a fresh interpreter, so nothing an earlier test
loaded can hide a third-party import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

LAYERS = (
    "flowc",
    "petrinet",
    "scheduling",
    "codegen",
    "runtime",
    "serve",
    "cache",
    "corpus",
    "experiments",
    "apps",
)

CHILD = """
import sys
before = set(sys.modules)
{imports}
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
foreign = sorted(loaded - set(sys.stdlib_module_names) - {{"repro"}})
assert "numpy" not in sys.modules, "a layer imports numpy"
assert not foreign, foreign
"""


def test_every_layer_imports_without_numpy():
    code = CHILD.format(imports="\n".join(f"import repro.{layer}" for layer in LAYERS))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
