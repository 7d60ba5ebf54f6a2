"""One bounded memo for every cache tier.

Every in-process cache -- the engine's graph, artifacts, tables, profile
and SIMD memos, the per-UGS table cache, the batcher's result cache, the
server's and the client's frame caches, the router's L2 and key maps
and the :func:`~repro.ir.nodes.intern_nest` table -- is a
:class:`Memo`: a thread-safe LRU bounded by ``capacity``.

Given a :class:`~repro.engine.metrics.Metrics`, a memo counts
``cache.<family>.hit`` when any tier answers and ``cache.<family>.miss``
otherwise.  Given a :class:`DiskBacking`, it probes the disk after a
memory miss, promotes a disk hit into memory, counts
``cache.<family>.disk_hit|disk_store|disk_error`` and times
``stage.disk_load`` / ``stage.disk_store``.  A corrupt entry is left in
place for the rebuild's atomic publish to replace, so a reader never
unlinks a concurrent writer's fresh entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover -- type names only
    from repro.engine.disk import DiskTier
    from repro.engine.metrics import Metrics

__all__ = ["DiskBacking", "Memo"]

_MISSING = object()

@dataclass(frozen=True)
class DiskBacking:
    """A key's file name on ``tier`` and the text codec of its values;
    ``load(text, context)`` may raise on a corrupt entry."""

    tier: "DiskTier"
    name: Callable[[Hashable], str]
    dump: Callable[[object], str]
    load: Callable[[str, object], object]

class Memo:
    """A bounded, thread-safe LRU, optionally counted and disk-backed.

    ``capacity`` is read on every insert, so it may be changed on a live
    memo.  Concurrent misses on one key may both build and :meth:`put`;
    memoized values are deterministic per key, so that is benign.
    """

    def __init__(self, family: str, capacity: int,
                 metrics: "Metrics | None" = None,
                 disk: DiskBacking | None = None):
        if capacity <= 0:
            raise ValueError(f"{family} memo capacity must be positive")
        self.family = family
        self.capacity = capacity
        self.metrics = metrics
        self.disk = disk
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, default=None, context=None):
        """The value under ``key`` from memory, else from disk (promoted
        into memory), else ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
        if value is _MISSING and self.disk is not None:
            value = self._load(key, context)
            if value is not _MISSING:
                self._remember(key, value)
        self._count("hit" if value is not _MISSING else "miss")
        return default if value is _MISSING else value

    def put(self, key: Hashable, value) -> None:
        """Remember ``value`` and publish it to the disk tier, if any."""
        self._remember(key, value)
        if self.disk is not None:
            self._store(key, value)

    def get_or_build(self, key: Hashable, build: Callable[[], object],
                     context=None):
        """:meth:`get`, or on a miss ``build()`` and :meth:`put` it."""
        value = self.get(key, _MISSING, context)
        if value is _MISSING:
            value = build()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every in-memory entry (the disk tier is left alone)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    # -- internals -----------------------------------------------------------

    def _count(self, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.count(f"cache.{self.family}.{outcome}")

    def _remember(self, key: Hashable, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def _load(self, key: Hashable, context):
        text = self.disk.tier.read(self.disk.name(key))
        if text is None:
            return _MISSING
        try:
            with self._timer("stage.disk_load"):
                value = self.disk.load(text, context)
        except Exception:
            self._count("disk_error")
            return _MISSING
        self._count("disk_hit")
        return value

    def _store(self, key: Hashable, value) -> None:
        with self._timer("stage.disk_store"):
            stored = self.disk.tier.write(self.disk.name(key),
                                          self.disk.dump(value))
        self._count("disk_store" if stored else "disk_error")

    def _timer(self, stage: str):
        if self.metrics is not None:
            return self.metrics.timer(stage)
        return nullcontext()
