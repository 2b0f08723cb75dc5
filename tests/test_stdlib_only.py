"""The library runs on the standard library alone, in layers.

Every layer is imported in a fresh interpreter, so nothing an earlier test
loaded can hide a third-party import, or a lower layer loading the
daemon's cache.
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


#: The layers below the daemon: none of them may load its cache.
LOWER_LAYERS = tuple(layer for layer in LAYERS if layer not in ("serve", "cache"))

LAYERING_CHILD = """
import sys
{imports}
loaded = sorted({{"repro.cache", "repro.serve", "sqlite3"}} & set(sys.modules))
assert not loaded, loaded
"""


def _run_child(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_every_layer_imports_without_numpy():
    _run_child(CHILD.format(imports="\n".join(f"import repro.{layer}" for layer in LAYERS)))


def test_layers_below_the_daemon_load_no_cache():
    """The disk cache belongs to the daemon: importing every other layer
    loads neither ``repro.cache``, ``repro.serve`` nor ``sqlite3``."""
    _run_child(
        LAYERING_CHILD.format(
            imports="\n".join(f"import repro.{layer}" for layer in LOWER_LAYERS)
        )
    )
