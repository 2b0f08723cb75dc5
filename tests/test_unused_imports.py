"""Every module-level import in the library is used by its module.

A name imported at the top of a module (``__init__`` modules aside: they
re-export) must appear again in that module, as code or inside a string
annotation.  Pure ``ast``, so the check imports nothing it inspects.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_names(tree: ast.Module):
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                yield (alias.asname or alias.name).partition(".")[0]


def _used_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "BoundedLRU[Tuple, V]"
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set(_imported_names(tree)) - set(_used_names(tree))
        if names:
            unused[str(path.relative_to(PACKAGE))] = sorted(names)
    assert not unused, unused
