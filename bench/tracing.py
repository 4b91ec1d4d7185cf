"""Spans recorded around the benchmark's own calls into the program.

Every span has a name of the form ``<layer>.<call>``, a start and an end
(``time.perf_counter`` seconds), the id of the span that was open when it
started on the same thread, and the request id of the operation it serves.
Spans stay in memory until the run ends, then go to one JSON-lines file.
"""
from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator

# The modules of src/maskap whose calls the benchmark wraps.  Spans named
# after anything else (``bench.*``) group a request's calls and are not a layer.
LAYERS = ("core", "protocol", "wire", "service", "registry", "cli", "netsim")


class Span:
    __slots__ = ("id", "name", "parent", "rid", "start", "end")

    def __init__(self, id: int, name: str, parent: int | None, rid: int | None) -> None:
        self.id, self.name, self.parent, self.rid = id, name, parent, rid
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rid: int | None = None) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        rec = Span(next(self._ids), name, parent.id if parent is not None else None, rid)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def median_us(self, name: str) -> float:
        return statistics.median(self.durations(name)) * 1e6

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        totals = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += s.seconds - child_time.get(s.id, 0.0)
        return totals

    def write(self, path: str) -> None:
        """One JSON object per span, in start order; times in seconds."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({k: getattr(s, k) for k in Span.__slots__}) + "\n")


class NullTracer:
    """Stands in for Tracer in the untraced runs: records nothing."""

    enabled = False

    def span(self, name: str, rid: int | None = None) -> nullcontext:
        return nullcontext()


NULL_TRACER = NullTracer()
