"""In-memory spans recorded around the benchmark's calls into eccrng.

A span has a name (`<module>.<function>`), start and end (perf_counter
seconds), the index of its parent span, the id of the run it belongs to and
the counts (bits in and out, bytes) taken at the same boundary.  Spans stay
in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run_id = 0

    def new_run(self) -> int:
        self.run_id += 1
        return self.run_id

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def run_spans(self, run_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]

    def self_times(self, run_id: int) -> dict[int, float]:
        """Span index -> duration minus the time its child spans cover."""
        spans = self.run_spans(run_id)
        own = {i: s.end - s.start for i, s in spans}
        for _, s in spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def as_records(self) -> list[dict]:
        return [dict(asdict(s), index=i) for i, s in enumerate(self.spans)]
