"""Merge one benchmark run's sections into a JSON report file.

The benchmark CLIs that write ``BENCH_scheduler.json`` (``bench_scheduler.py``
and ``bench_serve.py``) go through :func:`merge_report`: a run replaces only
the top-level sections it produced, so the sections other runs wrote -- and
the records of layers that no longer exist -- survive every regeneration.
An existing report that cannot be read is refused and left untouched rather
than replaced by this run's sections alone.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping


class ReportError(Exception):
    """The existing report is unreadable; it was left untouched."""


def merge_report(path: Path, sections: Mapping[str, object]) -> Dict[str, object]:
    """Write ``sections`` into the JSON object at ``path`` and return it.

    Sections already in the file keep their place and every other section
    keeps its bytes; new sections are appended.  A missing file starts
    empty.  Raises :class:`ReportError` when the file exists but is not a
    readable JSON object.
    """
    report: Dict[str, object] = {}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise ReportError(f"cannot read the existing report {path}: {error}") from error
        if not isinstance(report, dict):
            raise ReportError(f"the existing report {path} is not a JSON object")
    report.update(sections)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report
