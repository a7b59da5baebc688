"""In-memory spans recorded around calls into the package's modules.

A span is a name, a start, an end, the index of the span that was open
when it started (its parent), the id of the check it belongs to, and a
dict of work counts (directions, records, rays, ...).  Spans are kept
in a list and written out when the run ends.

The first dotted component of a span name is its layer: one of the
package modules (linalg, poly, ranges, hulls, dual, cones, cli), or
``bench`` for the benchmark's own glue around library-path checks.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.check = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "check": self.check,
            "counts": dict(counts),
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class _NoSpan:
    def __init__(self):
        self.counts = {}

    def __enter__(self):
        return self.counts

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Same interface as Tracer, records nothing: the untraced path."""

    check = None

    def span(self, name: str, **counts):
        return _NoSpan()


NULL_TRACER = NullTracer()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its child spans cover.

    Checks run on one thread and a span's children open and close in
    sequence inside it, so the children never overlap and the covered
    time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return [duration(s) - c for s, c in zip(spans, covered)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_table(spans: list[dict]) -> dict:
    """Self seconds and span count per layer, over the given spans."""
    table: dict = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(layer_of(s["name"]), {"self_s": 0.0, "spans": 0})
        row["self_s"] += own
        row["spans"] += 1
    return table


class SpanStats:
    """Totals and counts over spans of one name, for per-layer metrics."""

    def __init__(self, spans: list[dict]):
        self.by_name: dict = {}
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)

    def has(self, name: str) -> bool:
        return name in self.by_name

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def seconds(self, name: str) -> float:
        return sum(duration(s) for s in self.by_name.get(name, ()))

    def count(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.by_name.get(name, ()))

    def median_seconds(self, name: str, **match) -> float:
        vals = [
            duration(s)
            for s in self.by_name.get(name, ())
            if all(s["counts"].get(k) == v for k, v in match.items())
        ]
        return statistics.median(vals)


def write_spans(path, spans: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(
                json.dumps(
                    {
                        "id": i,
                        "name": s["name"],
                        "parent": s["parent"],
                        "check": s["check"],
                        "start": s["start"],
                        "end": s["end"],
                        "counts": s["counts"],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
