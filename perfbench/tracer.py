"""In-memory spans around the benchmark's calls into each program layer.

A :class:`Tracer` records one span per ``with tracer.span(name)`` block:
its name, start, end, parent span and the run id.  Spans stay in memory
while the run measures and are written as JSON lines once it ends, so
writing them costs nothing inside a timed pass.

The spans are taken from the benchmark's own files, around public
calls (``collect_traces``, ``StreamService.run``, ...).  Time a layer
spends inside another layer's call (the sniffer inside the simulator,
forest descent inside the stream) is not separable here; it needs spans
inside the program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed call: host seconds from ``time.perf_counter``."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(id=len(self.spans), name=name,
                      start=time.perf_counter(), end=0.0, parent=parent,
                      run_id=self.run_id)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def descendants(self, root: Span) -> List[Span]:
        """Every span nested (at any depth) under ``root``."""
        inside = {root.id}
        found = []
        for span in self.spans[root.id + 1:]:
            if span.parent in inside:
                inside.add(span.id)
                found.append(span)
        return found

    def self_times(self, root: Span) -> Dict[str, float]:
        """Self seconds per span name under ``root``, root included.

        A span's self time is its duration minus the durations of its
        direct children; the root's entry is what no layer covered.
        """
        children: Dict[int, float] = {}
        nested = self.descendants(root)
        for span in nested:
            children[span.parent] = (children.get(span.parent, 0.0)
                                     + span.duration)
        totals: Dict[str, float] = {}
        for span in [root] + nested:
            own = span.duration - children.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
