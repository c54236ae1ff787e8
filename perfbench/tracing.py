"""In-memory spans around the benchmark's calls into quadrobin.

A span records a name, its start and end (``perf_counter`` seconds), the
span that was open when it began, the operation it belongs to, the workload
that ran it, and counts observed at the same boundary.  Spans stay in memory
until the run ends and are then written out as JSON lines.

The untraced path takes no tracer: it calls the package directly or, where
the traced steps are themselves the operation, enters null contexts.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    workload: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one run; not thread-safe (the benchmark is one client)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.workload = ""
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op, self.workload)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s.counts
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
