"""In-memory spans recorded around the benchmark's calls into the library.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that encloses it and the id of the unit of work it belongs
to (a system name or a request number).  Spans stay in memory until the run
ends, then :meth:`Tracer.write` dumps them as JSON.

A disabled tracer records nothing, which is how the untraced run measures
the end-to-end metrics.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Nested spans of one benchmark run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, unit: object = None) -> Iterator[None]:
        """Record the enclosed block as one span (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        record: Dict[str, object] = {
            "name": name,
            "unit": unit,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _child_seconds(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return covered

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        totals: Dict[str, float] = {}
        for span, children in zip(self.spans, self._child_seconds()):
            own = span["end"] - span["start"] - children
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def min_child_coverage(self, name: str) -> Optional[float]:
        """Smallest share of a ``name`` span's duration covered by its children."""
        shares = [
            children / (span["end"] - span["start"])
            for span, children in zip(self.spans, self._child_seconds())
            if span["name"] == name and span["end"] > span["start"]
        ]
        return min(shares) if shares else None

    def write(self, path: Path) -> None:
        """Dump every span as JSON (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.spans, handle)
