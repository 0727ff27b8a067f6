"""In-memory spans around the benchmark's own calls into fiberalg.

A span is ``(name, start_ns, end_ns, parent, root)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``root`` the index of
the top-level span of the same operation, which groups the spans of one
operation.  Spans stay in memory until :meth:`Tracer.write` at the end
of a run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter_ns


def direct(name, fn, *args):
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][4] if self._stack else index
        self.spans.append((name, 0, 0, parent, root))
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, root)

    def count(self, name: str, value: int) -> None:
        """Record a count of work done at a span boundary."""
        self.counts[name].append(int(value))

    def self_times_ns(self) -> dict[str, list[int]]:
        """Per span name, each span's duration minus its direct children's."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = defaultdict(list)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append(end - start - child_ns[index])
        return out

    def median_self_ns(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.self_times_ns().items()}

    def write(self, path) -> None:
        """Write the spans as tab-separated rows, one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\troot\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                out.write(f"{index}\t{root}\t{parent}\t{name}\t{start}\t{end}\n")
