"""Spans and counters recorded around the benchmark's own calls into flatlab.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the id of the pullback or command
the span belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._ops = 0

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        sid = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def span(self, name: str, new_op: bool = False):
        """Time a block; ``new_op`` starts a new pullback or command id."""
        outer = self._op
        if new_op:
            self._ops += 1
            self._op = self._ops
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)
            self._op = outer

    def add(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, such as a child process's wall time."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self._op])

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[sid]
        return totals

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - t0, 7), round(end - t0, 7), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    on = False
    _null = contextlib.nullcontext()

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    def span(self, name, new_op=False):
        return self._null

    def add(self, name, start, end):
        pass

    def count(self, name, n=1):
        pass
