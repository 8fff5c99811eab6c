"""In-memory span recorder used by the traced benchmark run.

The benchmark wraps each call into a twistgrip public function with
`Tracer.call`. A span is (name, start, end, parent, op id); parents come from
the call stack, so the op's root span is the parent of the layer spans inside
it. Spans stay in memory until `write` is called at the end of the run.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span, None for an op root
    op: int


class Tracer:
    """Records spans while `enabled`; when disabled, `call` only calls through."""

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op_id)

    def self_times_ns(self):
        """Map span name -> list of self times: duration minus the time its children cover."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        out = defaultdict(list)
        for index, span in enumerate(self.spans):
            out[span.name].append(span.end_ns - span.start_ns - child_ns[index])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "parent": span.parent, "op": span.op,
                }) + "\n")
