"""Spans recorded around the benchmark's calls into hinwalk.

A span is (name, start, end, parent, run id), with times in seconds from
``time.perf_counter``. Spans are kept in memory and written out by the
caller when the benchmark ends. A disabled tracer calls straight through,
so untraced runs pay one attribute test per call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = {"id": index, "name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named after the layer and call."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)


def busy_and_self(spans: list[dict]) -> dict[str, tuple[float, float]]:
    """Per span name: total duration (busy) and duration not covered by
    child spans (self). Children of one span never overlap: calls are
    sequential in one thread."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, tuple[float, float]] = {}
    for s, covered in zip(spans, child_time):
        busy, own = out.get(s["name"], (0.0, 0.0))
        duration = s["end"] - s["start"]
        out[s["name"]] = (busy + duration, own + duration - covered)
    return out
