"""In-memory spans for the benchmark's traced run.

A span records one call the benchmark makes into evseq: its name, start
and end (``perf_counter_ns``), the span that was open when it started,
and a trace id (the sentence id while a sentence is processed, the
tracer's root id otherwise).  Spans stay in memory and are written out
once, at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from statistics import median
from time import perf_counter_ns


class Tracer:
    def __init__(self, root: str = "run"):
        self.root = root
        self.trace_id = root
        # (trace_id, span_id, parent_id, name, start_ns, end_ns)
        self.spans: list[tuple] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(span_id)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[span_id] = (self.trace_id, span_id, parent, name, start, end)

    def record(self, name: str, start: int, end: int) -> None:
        """Add a finished span under the currently open one."""
        parent = self._open[-1] if self._open else None
        self.spans.append((self.trace_id, len(self.spans), parent, name, start, end))

    def durations(self, name: str) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def total_ms(self, name: str) -> float:
        return sum(self.durations(name)) / 1e6

    def mean_us(self, name: str) -> float:
        d = self.durations(name)
        return sum(d) / len(d) / 1e3 if d else 0.0

    def median_ms(self, name: str) -> float:
        d = self.durations(name)
        return median(d) / 1e6 if d else 0.0

    def write(self, path, mode: str = "w") -> None:
        with open(path, mode, encoding="utf-8") as handle:
            for trace_id, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "trace": trace_id, "span": span_id, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }))
                handle.write("\n")


class TimedScorer:
    """Scorer proxy: one ``next_distribution`` span per call, plus the
    (prefix, distribution) pairs that the replay needs afterwards."""

    def __init__(self, scorer, tracer: Tracer):
        self.scorer = scorer
        self.tracer = tracer
        self.calls: list[tuple[tuple[str, ...], dict]] = []

    def next_distribution(self, inp, prefix):
        start = perf_counter_ns()
        dist = self.scorer.next_distribution(inp, prefix)
        end = perf_counter_ns()
        self.tracer.record("next_distribution", start, end)
        self.calls.append((tuple(prefix), dist))
        return dist
