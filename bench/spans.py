"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, batch).  Spans nest by the call stack
of the single benchmark thread; ``batch`` is the loop's batch id (negative
ids are set-up repetitions).  Nothing is written until ``write_jsonl``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

_NULL = nullcontext()


class NullTracer:
    """Stand-in used by untraced runs: every span is a shared no-op."""

    batch = 0

    def span(self, name: str):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, batch]
        self._stack: list[int] = []
        self.batch = 0

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.batch]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        return own

    def per_batch(self) -> dict[int, dict[str, float]]:
        """batch id -> span name -> summed self time in seconds."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            out[s[4]][s[0]] += own
        return out

    def coverage(self, root: str) -> dict[int, float]:
        """batch id -> share of its ``root`` span covered by direct children."""
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return {s[4]: child[i] / (s[2] - s[1])
                for i, s in enumerate(self.spans) if s[0] == root}

    def count(self, name: str) -> dict[int, int]:
        """batch id -> number of spans called ``name``."""
        out: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[0] == name:
                out[s[4]] += 1
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for s, own in zip(self.spans, self.self_times()):
                f.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                    "parent": s[3], "batch": s[4],
                                    "self": float(own)}) + "\n")


def traced(tracer: Tracer, name: str, fn):
    """Wrap ``fn`` so that every call records a span called ``name``."""
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper
