"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent)`` around one call the benchmark
makes into a layer of the program.  Spans stay in memory until the run
ends; :meth:`Tracer.dump` then writes them as Chrome trace-event JSON.
A span's self time is its duration minus the time its child spans
cover.  Spans nest per thread, so client threads can trace at once.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records nested spans; with ``enabled=False`` it records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # (id, name, start, end, parent id or -1, thread id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._local = threading.local()
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the ``with`` body as a span named ``name``."""
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident()))

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a root span)."""
        if self.enabled:
            self.spans.append((next(self._ids), name, start, end, -1,
                               threading.get_ident()))

    def self_times(self) -> list[tuple[int, str, float, int]]:
        """``(id, name, self seconds, root id)`` of every span."""
        child_time: dict[int, float] = defaultdict(float)
        parent_of = {s[0]: s[4] for s in self.spans}
        for span_id, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start

        def root(span_id: int) -> int:
            while parent_of.get(span_id, -1) >= 0:
                span_id = parent_of[span_id]
            return span_id

        return [(s[0], s[1], s[3] - s[2] - child_time[s[0]], root(s[0]))
                for s in self.spans]

    def per_root_ms(self, name: str) -> list[float]:
        """Self time of ``name`` summed within each root span, in ms.

        Roots that hold no ``name`` span count as 0, so the list has one
        entry per root span (one per frame when each frame is a root).
        """
        totals: dict[int, float] = {s[0]: 0.0 for s in self.spans
                                    if s[4] < 0}
        for _, span_name, self_s, root_id in self.self_times():
            if span_name == name:
                totals[root_id] += self_s * 1e3
        return list(totals.values())

    def durations_ms(self, name: str) -> list[float]:
        """Wall duration of every ``name`` span, in ms."""
        return [(s[3] - s[2]) * 1e3 for s in self.spans if s[1] == name]

    def median_ms(self, name: str, *, per_root: bool = False) -> float:
        values = (self.per_root_ms(name) if per_root
                  else self.durations_ms(name))
        return statistics.median(values) if values else 0.0

    def dump(self, path: Path) -> None:
        """Write every span as Chrome trace-event JSON (``"X"`` events)."""
        if not self.spans:
            return
        t0 = min(s[2] for s in self.spans)
        events = [
            {"name": name, "ph": "X", "pid": 0, "tid": tid,
             "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": span_id, "parent": parent}}
            for span_id, name, start, end, parent, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
