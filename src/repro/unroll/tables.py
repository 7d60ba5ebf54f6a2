"""The precomputed unroll tables (Figures 2, 3, 5 and 7 of the paper).

For every quantity the paper tabulates -- group-temporal sets, group-spatial
sets, register-reuse sets and register pressure -- we store the exact count
at every point of the unroll box, row-major, as plain ints.  The counts
come from the keyed location classes of
:func:`repro.unroll.streams.keyed_counts` and are cross-checked against
the union-find lattice counts (``tests/reference.py``) and the
brute-force baseline in the test suite.

The paper stores per-offset increments T[u'] instead and answers with the
box sum over ``u' <= u`` (its ``Sum`` function, Figure 2).  The dense
counts are that box sum evaluated once at every point, so ``Sum`` becomes
an index; :mod:`repro.unroll.paper_tables` keeps the increment form as the
documented transcription of the paper's pseudocode.

Once built, answering "what are M, R, g_T, g_S at unroll u?" costs a table
lookup -- no unrolled data structure is ever materialized, which is the
efficiency claim against Wolf, Maydan & Chen's approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from repro.ir.nodes import LoopNest
from repro.linalg import VectorSpace
from repro.linalg.matrix import int_fraction
from repro.reuse.locality import innermost_localized_space, self_reuse_base
from repro.reuse.ugs import UniformlyGeneratedSet, partition_ugs
from repro.unroll.space import UnrollSpace, UnrollVector, box_copies
from repro.unroll.streams import keyed_counts

def _row_major_strides(sizes: tuple[int, ...]) -> tuple[int, ...]:
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return tuple(strides)

class OffsetTable:
    """One quantity's exact count at every point of the unroll box.

    ``counts[i]`` is the value at the reduced point (over ``dims``) whose
    row-major index is ``i``; the box spans ``0..bounds[k]`` per dim.
    """

    def __init__(self, dims: tuple[int, ...], bounds: tuple[int, ...],
                 counts: list[int]):
        sizes = tuple(b + 1 for b in bounds)
        total = 1
        for size in sizes:
            total *= size
        if len(dims) != len(bounds) or len(counts) != total:
            raise ValueError(f"{len(counts)} counts for dims {dims} and "
                             f"bounds {bounds} ({total} points)")
        self.dims = dims
        self.bounds = bounds
        self.counts = counts
        self._sizes = sizes
        self._strides = _row_major_strides(sizes)

    def box_sum(self, reduced: tuple[int, ...]) -> int:
        """The paper's Sum (Figure 2) at ``reduced``: an index into the
        counts.  Coordinates above the box clamp to it (the paper's
        increments live inside it) and any negative coordinate selects
        the empty box."""
        if len(reduced) != len(self._sizes):
            raise ValueError("reduced vector length mismatch")
        idx = 0
        for r, size, stride in zip(reduced, self._sizes, self._strides):
            if r < 0:
                return 0
            if r >= size:
                r = size - 1
            idx += r * stride
        return self.counts[idx]

@dataclass(frozen=True)
class UgsTables:
    """All four tables for one uniformly generated set."""

    ugs: UniformlyGeneratedSet
    base_cost: Fraction  # Equation-1 base factor (self reuse w.r.t. L)
    gts: OffsetTable
    gss: OffsetTable
    rrs: OffsetTable
    registers: OffsetTable

@dataclass(frozen=True)
class UnrollPoint:
    """Model quantities at one unroll vector."""

    u: UnrollVector
    flops: Fraction
    memory_ops: Fraction
    registers: Fraction
    gts: Fraction
    gss: Fraction
    cache_cost: Fraction  # main-memory accesses per unrolled iteration

@dataclass(frozen=True)
class Aggregate:
    """Whole-nest int columns over the box, row-major by ``strides``:
    body copies, flops, memory ops, registers, g_T, g_S, and the cache
    cost times ``denominator``."""

    strides: tuple[int, ...]
    copies: tuple[int, ...]
    flops: list[int]
    memory_ops: list[int]
    registers: list[int]
    gts: list[int]
    gss: list[int]
    cost: list[int]
    denominator: int

class UnrollTables:
    """Precomputed model of a nest over an unroll space (section 4).

    Build once with :func:`build_tables`; every query is then a table
    lookup.  :attr:`aggregate` sums the per-UGS tables into the int
    columns the search ranks (:class:`repro.unroll.optimize.BoxRanking`);
    ``point(u)`` reads them as the quantities of one unroll vector.
    """

    def __init__(self, nest: LoopNest, space: UnrollSpace, line_size: int,
                 trip: int, per_ugs: list[UgsTables],
                 aggregate: Aggregate | None = None):
        self.nest = nest
        self.space = space
        self.line_size = line_size
        self.trip = trip
        self.per_ugs = per_ugs
        for entry in per_ugs:
            for table in (entry.gts, entry.gss, entry.rrs, entry.registers):
                if table.dims != space.dims or table.bounds != space.bounds:
                    raise ValueError(
                        f"table box {table.dims}/{table.bounds} differs "
                        f"from the unroll space {space.dims}/{space.bounds}")
        self._aggregate = aggregate

    @property
    def aggregate(self) -> Aggregate:
        """The whole-nest columns, built at first use."""
        if self._aggregate is None:
            self._aggregate = self._build_aggregate()
        return self._aggregate

    def rebind(self, nest: LoopNest) -> "UnrollTables":
        """These tables under a structurally identical ``nest`` (renamed
        loop variables, another name): every table and the aggregate are
        shared, only :attr:`nest` differs."""
        if nest is self.nest:
            return self
        return UnrollTables(nest, self.space, self.line_size, self.trip,
                            self.per_ugs, self.aggregate)

    def _build_aggregate(self) -> Aggregate:
        """Whole-nest counts at every box point: the elementwise sums of
        every set's count columns.

        The cache cost ``base * (g_S + (g_T - g_S) / ℓ)`` is
        ``base * (g_T + (ℓ-1) g_S) / ℓ``; over the common denominator
        ``ℓ * lcm(base denominators)`` each set adds an integer multiple
        of that weight, so the cache cost too is one int array and one
        Fraction per point.
        """
        space = self.space
        line = self.line_size
        scale = 1
        for entry in self.per_ugs:
            scale = lcm(scale, entry.base_cost.denominator)
        sums = [[0] * len(space) for _ in range(5)]
        for entry in self.per_ugs:
            base = entry.base_cost
            factor = base.numerator * (scale // base.denominator)
            weights = (factor * (t + (line - 1) * g)
                       for t, g in zip(entry.gts.counts, entry.gss.counts))
            for k, column in enumerate((entry.rrs.counts,
                                        entry.registers.counts,
                                        entry.gts.counts, entry.gss.counts,
                                        weights)):
                sums[k] = list(map(add, sums[k], column))
        sizes = tuple(b + 1 for b in space.bounds)
        copies = box_copies(sizes)
        base_flops = self.nest.flops_per_iteration()
        return Aggregate(_row_major_strides(sizes), copies,
                         [base_flops * c for c in copies], *sums,
                         scale * line)

    def point(self, u: UnrollVector) -> UnrollPoint:
        """The model quantities at ``u``, read from :attr:`aggregate`."""
        if not self.space.contains(u):
            raise ValueError(f"unroll vector {u} outside the table space")
        agg = self.aggregate
        idx = 0
        for dim, stride in zip(self.space.dims, agg.strides):
            idx += u[dim] * stride
        return UnrollPoint(
            u, int_fraction(agg.flops[idx]), int_fraction(agg.memory_ops[idx]),
            int_fraction(agg.registers[idx]), int_fraction(agg.gts[idx]),
            int_fraction(agg.gss[idx]),
            Fraction(agg.cost[idx], agg.denominator))

    def all_points(self) -> list[UnrollPoint]:
        return [self.point(u) for u in self.space]

def build_tables(nest: LoopNest, space: UnrollSpace, line_size: int = 4,
                 trip: int = 100,
                 localized: VectorSpace | None = None,
                 ugs: list[UniformlyGeneratedSet] | None = None,
                 ugs_cache=None) -> UnrollTables:
    """Build the GTS/GSS/RRS/RL tables for every UGS of ``nest``.

    ``localized`` is the cache-localized space (default: innermost loop).
    Register analysis always uses the innermost loop, per section 4.3.
    ``ugs`` optionally supplies the precomputed UGS partition (the engine
    reuses the one from its analysis artifacts).  Every set is counted
    by :func:`repro.unroll.streams.keyed_counts`, so ``localized`` must be
    spanned by coordinate axes: any other space raises ``ValueError``.

    ``ugs_cache`` (a :class:`repro.engine.ugscache.UgsTableCache`, or any
    object with the same ``key_for``/``fetch``/``put`` surface)
    memoizes per-set tables under their canonical signature, so sets seen
    in *any* previously built nest are served in O(1).
    """
    localized = localized if localized is not None else innermost_localized_space(nest)
    if localized.axes() is None:
        raise ValueError(f"localized space {localized} is not spanned by "
                         "axes")
    sets = partition_ugs(nest) if ugs is None else ugs
    per_ugs: list[UgsTables] = []
    for group in sets:
        if ugs_cache is not None:
            cache_key = ugs_cache.key_for(group, space, localized,
                                          line_size, trip)
            cached = ugs_cache.fetch(cache_key, group)
            if cached is not None:
                per_ugs.append(cached)
                continue
        base, _, _ = self_reuse_base(group.matrix, localized, line_size,
                                     trip)
        gts, gss, rrs, registers = (
            OffsetTable(space.dims, space.bounds, column)
            for column in keyed_counts(group, space, localized, line_size))
        entry = UgsTables(ugs=group, base_cost=base, gts=gts, gss=gss,
                          rrs=rrs, registers=registers)
        if ugs_cache is not None:
            ugs_cache.put(cache_key, entry)
        per_ugs.append(entry)
    return UnrollTables(nest, space, line_size, trip, per_ugs)
