"""In-memory spans around the benchmark's calls into trapclock.

A span records name, start, end, parent span and run id, plus counts taken
at the same boundary (replicas attempted/resolved/excluded, steps or
elements requested). Spans stay in memory until the run ends and are then
written out in one file together with the self time of every span name.
With tracing off the benchmark uses `NullTracer`, whose spans record
nothing, so the untraced timings carry no bookkeeping.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Open a span; the yielded dict takes counts known only afterwards."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, and self seconds.

        A span's self time is its duration minus the time its children
        cover; children of one span never overlap because the benchmark
        is single threaded, so that cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict] = {}
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            agg = out.setdefault(rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[rec["id"]]
        return out

    def write(self, path) -> None:
        doc = {"spans": self.spans, "self_time": self.self_times()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class NullTracer:
    run_id = ""

    @contextmanager
    def span(self, name: str, **counts):
        yield {}
