"""Spans around the benchmark's own calls into odckit, kept in memory.

Every call the benchmark makes into a library module goes through
``tracer.call(name, fn, *args)``.  The untraced run passes a NullTracer,
whose ``call`` is a plain call, so the end-to-end numbers carry no tracing
cost; the traced run passes a Tracer, which records one span per call.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    item = -1

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        pass


class Tracer(NullTracer):
    """Records one span per call: name, start, end, parent index and item id.

    The parent is the innermost span open when the call began (-1 at the
    top); ``item`` is set by the harness before each step, so every span of
    one step carries the same id.  Spans are stored column by column in
    arrays, which the garbage collector never has to scan, so a long traced
    run does not slow itself down.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.items = array("q")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.items.append(self.item)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = perf_counter()
            self._open.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for d, parent in zip(dur, self.parents):
            if parent >= 0:
                child[parent] += d
        out: dict[str, float] = defaultdict(float)
        for name, d, c in zip(self.names, dur, child):
            out[name] += d - c
        return out

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def write(self, path: Path) -> None:
        """One JSON object per span, in the order the spans began, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.items):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "item"), row))) + "\n")
