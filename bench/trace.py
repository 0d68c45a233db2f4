"""Timing shims the traced run puts around the program's public functions.

A span records its name, start and end (perf_counter_ns), the span that
was open when it began, and the pass it belongs to.  Spans stay in memory
until the run writes them out.  A shim whose target no longer exists is
listed in `missing` and does not fail the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (name, start, end, parent, pass_id)
        self.counts: dict[tuple[str, int], int] = defaultdict(int)   # (name, pass_id) -> n
        self.pass_id = -1
        self.kinds: dict[int, str] = {}    # pass_id -> what the pass did
        self.facts: dict[int, dict] = {}   # pass_id -> counts the pass left behind
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, kind: str) -> int:
        """Start a new pass; later spans and counts belong to it."""
        self.pass_id += 1
        self.kinds[self.pass_id] = kind
        return self.pass_id

    def passes(self, kind: str) -> list[int]:
        return [p for p, k in self.kinds.items() if k == kind]

    def span(self, name: str, fn, rename=None, count=None):
        """Wrap fn; rename(result) may refine the span name, count(result)
        adds to a per-pass counter named name + '.n'."""
        spans = self.spans
        stack = self._stack

        def shim(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.pass_id)
            if rename is not None:
                spans[sid] = (rename(result), start, end, parent, self.pass_id)
            if count is not None:
                self.counts[(name + ".n", self.pass_id)] += count(result)
            return result

        return shim

    def counter(self, name: str, fn):
        counts = self.counts

        def shim(*args, **kwargs):
            counts[(name, self.pass_id)] += 1
            return fn(*args, **kwargs)

        return shim

    def patch(self, module, attr: str, label: str, make) -> None:
        """Replace module.attr with make(original); `label` names the layer."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(label)
            return
        self._undo.append((module, attr, original))
        setattr(module, attr, make(original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def self_times(self) -> dict[tuple[str, int], tuple[int, int, int]]:
        """(name, pass_id) -> (calls, inclusive ns, self ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[tuple[str, int], list[int]] = defaultdict(lambda: [0, 0, 0])
        for sid, (name, start, end, _, pass_id) in enumerate(self.spans):
            acc = out[(name, pass_id)]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child_ns[sid]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path, workload: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({
                    "workload": workload, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "pass": pass_id,
                }) + "\n")
