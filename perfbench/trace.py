"""In-memory spans and counters for the traced benchmark run.

A span records (name, start, end, parent, root): ``root`` is the id of
the outermost span it sits under, so the spans of one request share an
identifier.  Spans are kept in memory and written out once, at the end
of the run.  A layer's self time is a span's duration minus the part
its direct children cover; summing self times per span name gives each
layer's busy time without double counting nested layers.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][4] if self._stack else sid
        rec = [name, time.perf_counter(), None, parent, root]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n=1):
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Per span name: summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


class NullTracer:
    """Stands in for :class:`Tracer` on untraced runs."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n=1):
        pass


NULL = NullTracer()
