"""In-memory spans for the traced benchmark run.

A span records one call into a layer: its name, start and end, the span
that caused it, and the trial or query id it belongs to. The benchmark
records spans from its own code only. It times a real call, then replays
the same inputs through the functions that call is made of, and records
each replayed call as a child of the real one. A child therefore does not
sit inside its parent's interval, so a span's self time is its duration
minus the summed durations of its children. Summed over a tree, self
times add up to the duration of the root, that is the untraced cost of
the real call; the replays are the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    key: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}

    def call(self, name: str, key: str, parent: Optional[int], fn, *args):
        """Run ``fn(*args)`` and record it as a span; returns the span index
        and the result."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.spans.append(Span(name, start, end, parent, key))
        return len(self.spans) - 1, result

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> Dict[str, List[float]]:
        """Self time in seconds of every span, grouped by span name."""
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.duration
        out: Dict[str, List[float]] = {}
        for k, sp in enumerate(self.spans):
            out.setdefault(sp.name, []).append(sp.duration - covered[k])
        return out

    def root_time(self) -> float:
        """Summed duration of the spans without a parent: the time the
        untraced run spends in the same calls."""
        return sum(sp.duration for sp in self.spans if sp.parent is None)

    def write(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "id": k,
                "name": sp.name,
                "start_us": round((sp.start - t0) * 1e6, 1),
                "end_us": round((sp.end - t0) * 1e6, 1),
                "parent": sp.parent,
                "key": sp.key,
            }
            for k, sp in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh)


def total_ms(selfs: Dict[str, List[float]], name: str) -> float:
    return sum(selfs.get(name, ())) * 1e3


def median_us(selfs: Dict[str, List[float]], name: str) -> float:
    values = selfs.get(name)
    return statistics.median(values) * 1e6 if values else 0.0
