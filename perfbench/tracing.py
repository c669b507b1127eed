"""Spans recorded around calls into chaos01's public functions.

Spans live in memory and are written out once, when the run ends, so the
recording itself does no I/O inside a timed region.  A span has a name, a
start, an end, the span that caused it and the request it belongs to, plus
any counts the caller attaches to it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **fields):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "request": self.request, "name": name, **fields}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def field(self, name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in self.named(name))

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs; records nothing."""

    request = None

    @contextmanager
    def span(self, name: str, **fields):
        yield fields
