"""In-memory spans recorded around the benchmark's calls into gwgfem."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans (name, start, end, parent, study, level) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, study: int, level: int | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "study": study,
            "level": level,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> dict:
    """{(study, name): summed self time}, a span's duration minus its children's.

    Spans come from one thread, so children never overlap each other.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[(s["study"], s["name"])] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(out)
