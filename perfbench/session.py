"""Operations, output checks and the output digest of one benchmark run.

An operation is one public call into trapclock. It fails when it raises,
when its output check fails, or when it returns a non-conclusive
`AgingEstimate`. Every call goes through `Session.call`, which opens a span
on the run's tracer and records the call's wall time. Per call name the
session keeps totals and an array of call times, not one object per call,
so its memory does not grow with the number of rounds a run manages.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from collections import Counter

import numpy as np

from trapclock.aging import AgingEstimate


class CallFailed(Exception):
    """A call raised; the rest of the round depends on it and is skipped."""


def _estimates(result) -> list[AgingEstimate]:
    if isinstance(result, AgingEstimate):
        return [result]
    if isinstance(result, list) and result and isinstance(result[0], AgingEstimate):
        return result
    return []


class Session:
    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []  # (call name, reason), one per failed call
        self.seconds: dict[str, array] = {}  # call name -> wall seconds of each call
        self.totals: dict[str, Counter] = {}  # call name -> replicas, excluded, steps
        self.values: dict[str, list[float]] = {}  # per-round derived figures
        self.last_seconds = 0.0
        self._last_name = ""
        self._last_failed = True
        self._digest = hashlib.sha256()

    def phase(self, name: str):
        return self.tracer.span(name)

    def _fail(self, why: str) -> None:
        if not self._last_failed:
            self._last_failed = True
            self.failures.append((self._last_name, why))

    def call(self, name: str, fn, *args, steps: int = 0, elements: int = 0, **kwargs):
        """Call `fn` as one operation; `steps`/`elements` are the work requested."""
        counts = {}
        if steps:
            counts["steps"] = steps
        if elements:
            counts["elements"] = elements
        self.attempted += 1
        self._last_name, self._last_failed = name, False
        totals = self.totals.setdefault(name, Counter())
        with self.tracer.span(name, **counts) as span_counts:
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # a raising call is a failed operation
                self._fail(f"raised {exc!r}")
                raise CallFailed(name) from exc
            finally:
                self.last_seconds = time.perf_counter() - t0
                self.seconds.setdefault(name, array("d")).append(self.last_seconds)
            totals["steps"] += steps
            ests = _estimates(result)
            if ests:
                replicas = sum(e.replicas for e in ests)
                excluded = sum(e.excluded for e in ests)
                totals["replicas"] += replicas
                totals["excluded"] += excluded
                span_counts["replicas_attempted"] = replicas
                span_counts["replicas_excluded"] = excluded
                span_counts["replicas_resolved"] = replicas - excluded
                if any(e.non_conclusive for e in ests):
                    self._fail("non-conclusive AgingEstimate")
        return result

    def check(self, ok: bool, what: str) -> None:
        """Output check on the latest operation; a failure fails that operation."""
        if not ok:
            self._fail(what)

    def digest(self, *values) -> None:
        """Feed numeric outputs into the run's digest (informational, not gated)."""
        for v in values:
            if isinstance(v, AgingEstimate):
                v = (v.estimate, v.stderr, v.excluded)
            if isinstance(v, bytes):
                data = v
            elif isinstance(v, np.ndarray):
                data = v.dtype.str.encode() + np.ascontiguousarray(v).tobytes()
            else:
                data = repr(v).encode()
            self._digest.update(len(data).to_bytes(8, "little") + data)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()
