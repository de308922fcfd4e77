"""In-memory spans around the benchmark's calls into hexsynth's layers.

A span holds its name, start, end, parent span, the item id it served and
the counts recorded at that boundary.  Spans stay in memory until the run
ends; `layer_metrics` turns them into calls, self time and summed counts.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.item = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Record a span; the yielded dict takes counts known only after the call."""
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "item": self.item, "counts": counts}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield counts
        finally:
            self._open.pop()
            rec["end"] = perf_counter()


class NullTracer:
    """Tracing off: the same interface at the cost of one call."""

    item = None

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        yield counts


def layer_metrics(spans: list[dict]) -> dict:
    """Per span name: calls, self_s (duration minus the time its child spans
    cover) and the sum of each recorded count."""
    child_time = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    out: dict[str, dict] = {}
    for idx, rec in enumerate(spans):
        m = out.setdefault(rec["name"], {"calls": 0, "self_s": 0.0})
        m["calls"] += 1
        m["self_s"] += rec["end"] - rec["start"] - child_time[idx]
        for key, value in rec["counts"].items():
            m[key] = m.get(key, 0) + value
    return out
