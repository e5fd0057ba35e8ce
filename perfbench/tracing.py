"""In-memory spans around calls into the program's layers.

A span records its name, start, end, parent span and population index.
Spans stay in memory until the run ends.  ``NullTracer`` is the untraced
stand-in: its span is a shared no-op context, so the timed code paths are
the same in both modes.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Iterator


class NullTracer:
    enabled = False

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.population = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.population)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def busy(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: total duration, self time and number of calls.

        Self time is the duration minus the part covered by child spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child_time[index]
            row[2] += 1
        return {name: (row[0], row[1], row[2]) for name, row in out.items()}

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "population": i}
            for n, s, e, p, i in self.spans
        ]
