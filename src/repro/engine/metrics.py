"""Lightweight instrumentation for the analysis engine.

Every stage of the engine (dependence graph, locality, table build, cache
probes, batch dispatch) is timed with the monotonic clock and counted, so
throughput claims ("tables answer every unroll query without re-unrolling")
are measurable instead of asserted.  A :class:`Metrics` object carries

* **counters** -- monotone integers (cache hits/misses, batch items, ...);
* **stage timers** -- per-stage wall time with count/total/min/max and a
  log-scale histogram of individual durations.

Snapshots are plain JSON-serializable dicts; the cluster router merges
its shards' snapshots into one document.  ``to_json()`` is the
export the benchmark harness and ``python -m repro batch --json`` emit.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Mapping

#: Inclusive upper bounds of the duration histogram buckets, in seconds.
#: One final open-ended bucket catches everything slower than the last bound.
BUCKET_BOUNDS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

class StageStats:
    """Aggregated wall-time observations for one named stage."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)
        for slot, bound in enumerate(BUCKET_BOUNDS):
            if seconds <= bound:
                self.buckets[slot] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) in seconds.

        Derived from the log-scale histogram by linear interpolation inside
        the containing bucket; the first and last buckets are clamped to the
        observed ``min``/``max``, so the estimate always lies inside the
        observed range.  Exact when the stage was observed once.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("percentile rank must be in (0, 1]")
        if not self.count:
            return 0.0
        if self.count == 1 or self.min == self.max:
            # One observation -- or identical observations merged from
            # worker snapshots -- pins every percentile to the observed
            # value; the histogram interpolation below would otherwise
            # report a bucket bound (or 0.0) instead.
            return self.min
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for slot, upper in enumerate(BUCKET_BOUNDS):
            in_bucket = self.buckets[slot]
            if in_bucket and cumulative + in_bucket >= target:
                lo = max(lower, self.min)
                hi = max(lo, min(upper, self.max))
                fraction = (target - cumulative) / in_bucket
                return lo + fraction * (hi - lo)
            cumulative += in_bucket
            lower = upper
        # Open-ended final bucket: everything slower than the last bound.
        # Clamp into [min, max]: a degenerate histogram (e.g. merged from
        # a snapshot without bucket data) must still answer in range.
        in_bucket = self.buckets[-1]
        lo = min(max(lower, self.min), self.max)
        hi = max(lo, self.max)
        fraction = (target - cumulative) / in_bucket if in_bucket else 1.0
        return lo + min(fraction, 1.0) * (hi - lo)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
            "histogram": list(self.buckets),
        }

    def merge_dict(self, data: Mapping) -> None:
        if not data.get("count"):
            return
        self.count += data["count"]
        self.total += data["total_s"]
        self.min = min(self.min, data["min_s"])
        self.max = max(self.max, data["max_s"])
        for slot, value in enumerate(data.get("histogram", ())):
            if slot < len(self.buckets):
                self.buckets[slot] += value

class Metrics:
    """Counters plus per-stage timing, mergeable across processes.

    Recording and reading are protected by a reentrant lock, so one
    ``Metrics`` may be shared by the serving layer's worker threads and the
    asyncio dispatcher without torn counter updates.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.stages: dict[str, StageStats] = {}
        self._lock = threading.RLock()

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, stage: str, seconds: float) -> None:
        with self._lock:
            stats = self.stages.get(stage)
            if stats is None:
                stats = self.stages[stage] = StageStats()
            stats.observe(seconds)

    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Time a block with the monotonic clock and record it under
        ``stage``."""
        start = time.monotonic()
        try:
            yield
        finally:
            self.observe(stage, time.monotonic() - start)

    # -- reading -------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def mean_s(self, stage: str) -> float:
        """Mean seconds of one ``stage``; 0.0 when it never ran."""
        with self._lock:
            stats = self.stages.get(stage)
            return stats.mean if stats is not None else 0.0

    def hit_rate(self, family: str) -> float:
        """``hits / (hits + misses)`` for a ``<family>.hit``/``.miss``
        counter pair; 0.0 when the family was never probed."""
        hits = self.counter(f"{family}.hit")
        misses = self.counter(f"{family}.miss")
        probes = hits + misses
        return hits / probes if probes else 0.0

    def snapshot(self) -> dict:
        """A JSON-serializable copy of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "stages": {name: stats.to_dict()
                           for name, stats in sorted(self.stages.items())},
                "histogram_bounds_s": list(BUCKET_BOUNDS),
            }

    def merge(self, snapshot: Mapping) -> None:
        """Fold another Metrics' :meth:`snapshot` into this one (the
        cluster router aggregates its shards' metrics this way)."""
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.count(name, value)
            for name, data in snapshot.get("stages", {}).items():
                stats = self.stages.get(name)
                if stats is None:
                    stats = self.stages[name] = StageStats()
                stats.merge_dict(data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

def delta(before: Mapping[str, int], after: Mapping[str, int]) -> dict[str, int]:
    """Counter-wise ``after - before`` (only non-zero entries), for
    isolating what one run contributed."""
    out = {}
    for name, value in after.items():
        diff = value - before.get(name, 0)
        if diff:
            out[name] = diff
    return out
