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
a process-local :class:`~repro.engine.memo.Memo`, optionally backed by
the engine's cross-process :class:`~repro.engine.disk.DiskTier` (entries
persist as ``ugs-<digest>.json`` next to the whole-nest
``tables-<digest>.json``).

Hits rebind only the ``ugs`` field of the cached entry; every numeric
table is shared, so a cold nest whose sets were seen in *any* prior nest
folds cached tables in O(1) per set instead of re-running the lattice
counting.  The parity fuzz suite (tests/test_ugs_cache.py) checks the
served tables are bit-identical to a fresh build.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.engine.memo import DiskBacking, Memo
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

    H enters as its int rows and ``localized`` as its axes: both are
    canonical (a Fraction row equals and hashes like its int row; an axis
    space's basis is the unit vectors of its axes), so equal sets keep
    equal keys without hashing Fractions per probe.  A ``localized`` not
    spanned by axes raises ``ValueError``, as in
    :func:`~repro.unroll.tables.build_tables`, which counts only those.
    """
    rows = group.matrix.integer_rows()
    axes = localized.axes()
    if axes is None:
        raise ValueError(f"localized space {localized} is not spanned by "
                         "axes")
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
        axes,
        line_size, trip,
    )

def ugs_digest(signature: tuple) -> str:
    """The stable disk-tier key for a signature.  The ``ugs-`` prefix
    keeps UGS entries disjoint from the engine's whole-nest
    ``tables-`` entries in one directory."""
    digest = hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()
    return f"ugs-{digest[:32]}"

class UgsTableCache(Memo):
    """The ``ugs`` memo family: per-UGS tables under their signature,
    optionally backed by a :class:`~repro.engine.disk.DiskTier`.

    The entries are frozen dataclasses over immutable tables, so sharing
    them between threads -- and across every nest the engine ever sees --
    is safe.  :meth:`key_for`, :meth:`fetch` and :meth:`put` are the
    surface :func:`repro.unroll.tables.build_tables` drives.
    """

    def __init__(self, capacity: int = 4096,
                 metrics: "Metrics | None" = None,
                 disk: "DiskTier | None" = None):
        backing = None
        if disk is not None:
            backing = DiskBacking(disk, _ugs_file, ugs_tables_to_json,
                                  ugs_tables_from_json)
        super().__init__("ugs", capacity, metrics, backing)

    key_for = staticmethod(ugs_signature)

    def fetch(self, key: tuple,
              group: UniformlyGeneratedSet) -> UgsTables | None:
        """The cached tables under ``key`` rebound to ``group``, or
        ``None`` on a miss in every tier."""
        entry = self.get(key, context=group)
        if entry is None or entry.ugs is group:
            return entry
        return replace(entry, ugs=group)

def _ugs_file(key: tuple) -> str:
    return f"{ugs_digest(key)}.json"
