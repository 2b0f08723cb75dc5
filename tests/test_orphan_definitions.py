"""Every module-level function and class of the library is used somewhere.

A function or class defined at the top level of a module under ``src/repro``
must be named, as a whole word, in some Python file under ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` outside its own
definition: a call, an import, a re-export or a mention in a docstring all
count.  A definition nothing names is dead code.  Pure ``ast`` and ``re``, so
the check imports nothing it inspects.
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
