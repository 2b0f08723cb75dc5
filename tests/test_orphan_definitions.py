"""Every function, class and method of the library is used somewhere.

A function or class defined at the top level of a module under ``src/repro``
must be used in some Python file under ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` or ``perfbench/``, outside its own
definition: read as a name (a call, a base class, an annotation), as an
attribute (``module.name``), or named by a string literal that is exactly
its name.  An import, a package re-export, an ``__all__`` entry or a
mention in a docstring does not count: each only passes the name on.  A
method (any non-dunder function defined in a class body) must be read as an
attribute (``obj.name``) or named by such a string (``getattr(obj,
"name")``, ``monkeypatch.setattr``) in one of those files, outside its own
body.  A definition nothing uses is dead code.  Pure ``ast``, so the check
imports nothing it inspects.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples", "perfbench")


def _mentions(tree: ast.AST, *, names: bool):
    """``(name, line)`` of every attribute read, every string literal outside
    an ``__all__`` list and, with ``names``, every name read or bound."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif names and isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in exported
        ):
            yield node.value, node.lineno


def _mentioned(*, names: bool):
    """Every file's mentions, by name: ``{name: [(path, line), ...]}``."""
    mentions = {}
    for folder in SEARCHED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, line in _mentions(ast.parse(path.read_text(encoding="utf-8")), names=names):
                mentions.setdefault(name, []).append((path, line))
    return mentions


def _used_outside(node: ast.AST, path: Path, mentions) -> bool:
    """True when ``mentions`` hold a use of ``node``'s name outside its body."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return any(
        where != path or not first <= line <= node.end_lineno
        for where, line in mentions.get(node.name, ())
    )


def test_every_module_level_definition_is_named_elsewhere():
    mentions = _mentioned(names=True)
    orphans = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _used_outside(node, path, mentions):
                orphans.append(f"{path.relative_to(PACKAGE)}::{node.name}")
    assert not orphans, orphans


def test_every_method_is_read_elsewhere():
    mentions = _mentioned(names=False)
    orphans = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if not _used_outside(node, path, mentions):
                    orphans.append(f"{path.relative_to(PACKAGE)}::{cls.name}.{node.name}")
    assert not orphans, orphans
