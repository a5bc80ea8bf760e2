"""In-memory timed spans for the traced benchmark run, and self-time arithmetic.

The traced run wraps each call it makes into a layer's public API in a
:meth:`Tracer.span`.  Spans stay in memory and are written as JSON lines
when the run ends, one object per span with the fields ``run``, ``id``,
``parent``, ``name``, ``start``, ``end`` (``time.monotonic()`` seconds) and
``counters``.

A span's *self time* is its duration minus the part of its interval that
its children cover (:func:`self_times`); children may overlap, as they do
when a layer fans work out over threads.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Collects nested spans of one run."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the enclosed block; yields the span's mutable counter dict."""
        record = {
            "run": self.run,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "counters": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counters"]
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that (through
    clock skew or a detached thread) outlives its parent never drives a self
    time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: (span["end"] - span["start"])
        - _union_length(children.get(span["id"], []))
        for span in spans
    }


def busy_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals
