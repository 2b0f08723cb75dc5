"""Every function, class and method of the library is used somewhere.

A function or class defined at the top level of a module under ``src/repro``
must be named, as a whole word, in some Python file under ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` outside its own
definition: a call, an import, a re-export or a mention in a docstring all
count.  A method (any non-dunder function defined in a class body) must be
read as an attribute (``obj.name``) or named by a string literal that is
exactly its name (``getattr(obj, "name")``, ``monkeypatch.setattr``) in one
of those files, outside its own body.  A definition nothing names is dead
code.  Pure ``ast`` and ``re``, so the check imports nothing it inspects.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples", "perfbench")
WORD = re.compile(r"\w+")


def test_every_module_level_definition_is_named_elsewhere():
    sources = {
        path: path.read_text(encoding="utf-8")
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    words = Counter(word for text in sources.values() for word in WORD.findall(text))
    orphans = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = sources[path].splitlines()
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[first - 1:node.end_lineno])
            if words[node.name] == WORD.findall(own).count(node.name):
                orphans.append(f"{path.relative_to(PACKAGE)}::{node.name}")
    assert not orphans, orphans


def _method_mentions(tree: ast.AST):
    """``(name, line)`` of every attribute read and every string literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_method_is_read_elsewhere():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    mentions = {}
    for path, tree in trees.items():
        for name, line in _method_mentions(tree):
            mentions.setdefault(name, []).append((path, line))
    orphans = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if not any(
                    where != path or not first <= line <= node.end_lineno
                    for where, line in mentions.get(node.name, ())
                ):
                    orphans.append(f"{path.relative_to(PACKAGE)}::{cls.name}.{node.name}")
    assert not orphans, orphans
