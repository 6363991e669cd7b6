"""In-memory spans recorded around calls into the engine's layers.

A span is (name, start, end, parent, run id).  Spans nest strictly (the
benchmark is one closed-loop client on one thread), so a span's self time
is its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans and counters in memory; ``dump`` writes them out.

    A disabled tracer keeps the same call sites but records nothing, which
    is how the traced and untraced cost of the same code are compared."""

    def __init__(self, run_id: str, enabled: bool = True, clock=time.perf_counter):
        self.run_id = run_id
        self.enabled = enabled
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "start": self.clock(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = self.clock()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s["name"]] += s["end"] - s["start"] - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts)}, f)
