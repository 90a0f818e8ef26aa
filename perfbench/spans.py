"""Spans and counters recorded around the benchmark's own calls into the library.

Nothing inside ``src/`` is instrumented: each workload wraps its calls into a
library module with ``tracer.call(name, fn, *args)``, so a span covers exactly
one library call.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class NullTracer:
    """Tracing off: calls go straight through and counters are dropped."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    @contextmanager
    def case(self, case_id):
        yield


class Tracer:
    """Records (name, start_ns, end_ns, parent, case_id) spans and per-cycle counters."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name_idx, start, end, parent, case_id, cycle]
        self.counters: dict[int, dict[str, int]] = {}  # cycle -> name -> count
        self._stack: list[int] = []
        self._case_id = -1
        self._cycle = -1

    def begin_cycle(self, cycle: int) -> None:
        self._cycle = cycle
        self.counters[cycle] = {}

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        rec = [self._name(name), time.perf_counter_ns(), 0, parent, self._case_id, self._cycle]
        self.spans.append(rec)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def count(self, name, n=1):
        bucket = self.counters[self._cycle]
        bucket[name] = bucket.get(name, 0) + n

    @contextmanager
    def case(self, case_id):
        self._case_id = case_id
        idx = self._open("bench.case")
        try:
            yield
        finally:
            self._close(idx)
            self._case_id = -1

    def self_times(self) -> dict[tuple[str, int], float]:
        """Self time in seconds, summed per (span name, cycle).

        A span's self time is its duration minus the time its child spans
        cover; children of one parent run one after another, so their
        durations add up without overlap.
        """
        child_ns = [0] * len(self.spans)
        for name_idx, start, end, parent, _case, _cycle in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[tuple[str, int], float] = {}
        for i, (name_idx, start, end, _parent, _case, cycle) in enumerate(self.spans):
            key = (self.names[name_idx], cycle)
            out[key] = out.get(key, 0.0) + (end - start - child_ns[i]) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "case_id", "cycle"],
                    "names": self.names,
                    "spans": self.spans,
                    "counters": {str(c): v for c, v in self.counters.items()},
                },
                fh,
            )
