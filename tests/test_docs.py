"""The README is executable documentation.

Every fenced ``python`` block in ``README.md`` is extracted verbatim and
executed in its own namespace -- if the quickstart drifts from the API, this
fails before a reader does.  (The CI docs job runs this module plus every
``examples/*.py`` script.)
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks():
    text = README.read_text(encoding="utf-8")
    return _FENCE.findall(text)


def test_readme_exists_with_python_blocks():
    blocks = _python_blocks()
    assert len(blocks) >= 2, "README should carry runnable quickstart snippets"


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_python_block_runs_verbatim(index):
    block = _python_blocks()[index]
    namespace: dict = {"__name__": "__readme__"}
    exec(compile(block, f"README.md[python block {index}]", "exec"), namespace)


def test_readme_documents_the_contract():
    text = README.read_text(encoding="utf-8")
    # tier-1 test command, cache knobs and the docs suite must stay mentioned
    assert "python -m pytest -x -q" in text
    assert "REPRO_CACHE_DIR" in text and "python -m repro.cache" in text
    assert "docs/user_guide.md" in text and "docs/architecture.md" in text
    for linked in ("docs/user_guide.md", "docs/architecture.md"):
        assert (README.parent / linked).exists(), f"README links a missing {linked}"
