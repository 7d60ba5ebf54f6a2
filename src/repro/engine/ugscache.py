"""Cross-nest memoization of per-UGS tables (sub-structural caching).

Every cache the engine had before this module keys on the *whole-nest*
structural key, so two different nests that share identical uniformly
generated sets recompute every GTS/GSS/RRS/register table from scratch.
But the paper's math factors per UGS: each set's tables depend only on

* the subscript matrix H,
* the members' constant vectors **up to uniform translation** (merges and
  spatial relations consume pairwise deltas only, and the stream-chain
  touch times shift uniformly under translation, preserving order and
  spans),
* each member's read/write role and the members' *relative* textual
  order (positions only break touch-time ties, so only their rank
  matters),
* the unroll space (depth, dims, bounds), the localized vector space,
  the cache line size and the trip count (through the Equation-1 base
  factor).

:func:`ugs_signature` canonicalizes exactly that tuple -- notably
subtracting the first member's constant vector from every member, so
``A(I,J)+A(I-1,J)`` and ``A(I+4,J)+A(I+3,J)`` (and the same pattern on a
differently named array) share one entry.  :class:`UgsTableCache` then
memoizes :class:`~repro.unroll.tables.UgsTables` under that signature in
a process-local LRU, optionally backed by the engine's cross-process
:class:`~repro.engine.disk.DiskTier` (entries persist as
``ugs-<digest>.json`` next to the whole-nest ``tables-<digest>.json``).

Hits rebind only the ``ugs`` field of the cached entry; every numeric
table is shared, so a cold nest whose sets were seen in *any* prior nest
folds cached tables in O(1) per set instead of re-running the lattice
counting.  The parity fuzz suite (tests/test_ugs_cache.py) checks the
served tables are bit-identical to a fresh build.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.linalg import VectorSpace
from repro.reuse.ugs import UniformlyGeneratedSet
from repro.unroll.serialize import ugs_tables_from_json, ugs_tables_to_json
from repro.unroll.space import UnrollSpace
from repro.unroll.tables import UgsTables

if TYPE_CHECKING:  # pragma: no cover -- type names only
    from repro.engine.disk import DiskTier
    from repro.engine.metrics import Metrics

__all__ = ["UgsTableCache", "ugs_digest", "ugs_signature"]

#: Bump when the signature derivation or the serialized payload changes.
UGS_FORMAT_VERSION = 3

def ugs_signature(group: UniformlyGeneratedSet, space: UnrollSpace,
                  localized: VectorSpace, line_size: int,
                  trip: int) -> tuple:
    """The canonical, hashable key under which ``group``'s tables are
    valid for any nest.

    The array name and the absolute constant vectors are deliberately
    absent: tables consume constant *deltas* (plus uniform-shift-invariant
    touch times), so translating every member by the first member's
    constants maximizes cross-nest sharing without changing a single
    table value.  Member positions enter only as their rank order (the
    touch-time tie-break compares positions, never their values).

    H enters as its int rows and an axis-spanned ``localized`` as its
    axes: both are canonical (a Fraction row equals and hashes like its
    int row; an axis space's basis is the unit vectors of its axes), so
    equal sets keep equal keys without hashing Fractions per probe.
    """
    rows = group.matrix.integer_rows()
    axes = localized.axes()
    members = group.members
    consts = group.constants()
    base = consts[0]
    normalized = tuple(tuple(c - b for c, b in zip(vec, base))
                       for vec in consts)
    by_position = sorted(range(len(members)),
                         key=lambda i: members[i].position)
    ranks = [0] * len(members)
    for rank, member in enumerate(by_position):
        ranks[member] = rank
    return (
        UGS_FORMAT_VERSION,
        rows if rows is not None else group.matrix.rows,
        normalized,
        tuple(m.is_write for m in members),
        tuple(ranks),
        space.depth, space.dims, space.bounds,
        localized.dimension_ambient,
        axes if axes is not None else localized.basis,
        line_size, trip,
    )

def ugs_digest(signature: tuple) -> str:
    """The stable disk-tier key for a signature.  The ``ugs-`` prefix
    keeps UGS entries disjoint from the engine's whole-nest
    ``tables-`` entries in one directory."""
    digest = hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()
    return f"ugs-{digest[:32]}"

class UgsTableCache:
    """Process-local LRU of per-UGS tables, optionally persisted to disk.

    Thread-safe (one lock around the recency-ordered map); the entries are
    frozen dataclasses over immutable tables, so sharing them between
    threads -- and across every nest the engine ever sees -- is safe.

    ``metrics`` is read through the attribute on every probe, so an engine
    that swaps its :class:`Metrics` (the pool workers do, per task) only
    has to re-point ``cache.metrics``.
    """

    def __init__(self, capacity: int = 4096,
                 metrics: "Metrics | None" = None,
                 disk: "DiskTier | None" = None):
        if capacity <= 0:
            raise ValueError("UGS cache capacity must be positive")
        self.capacity = capacity
        self.metrics = metrics
        self.disk = disk
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n)

    def key_for(self, group: UniformlyGeneratedSet, space: UnrollSpace,
                localized: VectorSpace, line_size: int, trip: int) -> tuple:
        return ugs_signature(group, space, localized, line_size, trip)

    def fetch(self, key: tuple,
              group: UniformlyGeneratedSet) -> UgsTables | None:
        """The cached tables under ``key`` rebound to ``group``, or
        ``None`` on a full miss.  Probes the in-process LRU first, then
        the disk tier (promoting disk hits into the LRU)."""
        with self._lock:
            entry = self._data.get(key)
            if entry is not None:
                self._data.move_to_end(key)
        if entry is not None:
            self._count("cache.ugs.hit")
            return replace(entry, ugs=group)
        entry = self._fetch_disk(key, group)
        if entry is not None:
            self._count("cache.ugs.hit")
            self._count("cache.ugs.disk_hit")
            self._put(key, entry)
            return entry
        self._count("cache.ugs.miss")
        return None

    def store(self, key: tuple, entry: UgsTables) -> None:
        """Publish freshly built tables under ``key`` (LRU + disk)."""
        self._put(key, entry)
        self._count("cache.ugs.store")
        if self.disk is not None and self.disk.write(
                f"{ugs_digest(key)}.json", ugs_tables_to_json(entry)):
            self._count("cache.ugs.disk_store")

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    # -- internals -----------------------------------------------------------

    def _put(self, key: tuple, entry: UgsTables) -> None:
        with self._lock:
            self._data[key] = entry
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def _fetch_disk(self, key: tuple,
                    group: UniformlyGeneratedSet) -> UgsTables | None:
        if self.disk is None:
            return None
        text = self.disk.read(f"{ugs_digest(key)}.json")
        if text is None:
            return None
        try:
            return ugs_tables_from_json(text, group)
        except Exception:
            return None  # corrupt entry: a miss, overwritten on store
