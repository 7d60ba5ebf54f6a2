"""The precomputed unroll tables (Figures 2, 3, 5 and 7 of the paper).

For every quantity the paper tabulates -- group-temporal sets, group-spatial
sets, register-reuse sets and register pressure -- we store a table of
*per-offset increments* T[u'] whose box sum over ``u' <= u`` yields the
value at unroll vector u (the paper's ``Sum`` function, Figure 2).  The
increments are obtained by Mobius inversion of the exact lattice counts of
:mod:`repro.unroll.streams`; the box-sum identity is exact by construction
and cross-checked against the brute-force baseline in the test suite.

Once built, answering "what are M, R, g_T, g_S at unroll u?" costs a table
lookup -- no unrolled data structure is ever materialized, which is the
efficiency claim against Wolf, Maydan & Chen's approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add
from typing import Callable

from repro.ir.nodes import LoopNest
from repro.linalg import VectorSpace
from repro.linalg.matrix import int_fraction
from repro.reuse.locality import innermost_localized_space, self_reuse_base
from repro.reuse.ugs import UniformlyGeneratedSet, partition_ugs
from repro.unroll.space import UnrollSpace, UnrollVector, body_copies
from repro.unroll.streams import (
    conservative_chains,
    conservative_group_count,
    group_count,
    group_count_spatial,
    is_analyzable,
    keyed_counts,
    pairwise_merges,
    spatial_relations,
    stream_chains,
)

class OffsetTable:
    """Per-offset increments over the unroll box, queried by box sum.

    ``table[u'] = T(u')`` such that ``sum(T(u') for u' <= u) = count(u)``;
    entries may be negative (merges remove groups).

    The constructor also materializes the *inclusive prefix sums*
    (summed-area table) of the increments over the box, so :meth:`box_sum`
    answers in O(1) instead of scanning every increment.  The scan,
    :meth:`box_sum_scan`, answers for tables whose increments fall outside
    the declared box and is the reference the parity suite compares
    against.
    """

    def __init__(self, dims: tuple[int, ...], bounds: tuple[int, ...],
                 increments: dict[tuple[int, ...], Fraction]):
        self.dims = dims
        self.bounds = bounds
        self.increments = increments
        self._sizes = tuple(b + 1 for b in bounds)
        strides = [1] * len(bounds)
        for i in range(len(bounds) - 2, -1, -1):
            strides[i] = strides[i + 1] * self._sizes[i + 1]
        self._strides = tuple(strides)
        self._prefix = self._build_prefix()

    def counts(self) -> list[int] | None:
        """The value at every box point as plain ints, in row-major order
        (the inclusive prefix sums), or None when the table has no
        integral in-box prefix (hand-built with fractional or out-of-box
        increments)."""
        prefix = self._prefix
        if prefix is None or isinstance(prefix[0], Fraction):
            return None
        return prefix

    def _build_prefix(self) -> list | None:
        """Dense inclusive prefix sums over the box, or None when an
        increment lies outside it (hand-built tables keep the scan)."""
        sizes, strides = self._sizes, self._strides
        total = 1
        for size in sizes:
            total *= size
        placed: list[tuple[int, Fraction | int]] = []
        integral = True
        for offset, inc in self.increments.items():
            if len(offset) != len(sizes):
                return None
            idx = 0
            for o, size, stride in zip(offset, sizes, strides):
                if not 0 <= o < size:
                    return None
                idx += o * stride
            if isinstance(inc, Fraction):
                if inc.denominator == 1:
                    inc = inc.numerator
                else:
                    integral = False
            placed.append((idx, inc))
        # Integer increments (the common case: all four table kinds count
        # groups, memory ops or registers) accumulate as plain ints.
        cells: list = [0] * total if integral else [Fraction(0)] * total
        for idx, inc in placed:
            cells[idx] += inc
        # One accumulation pass per axis turns increments into inclusive
        # N-D prefix sums.
        for axis, size in enumerate(sizes):
            stride = strides[axis]
            block = stride * size
            for base in range(0, total, block):
                for off in range(stride, block):
                    cells[base + off] += cells[base + off - stride]
        return cells

    @staticmethod
    def from_counts_multi(space: UnrollSpace,
                          count: Callable[[UnrollVector], tuple],
                          width: int) -> list["OffsetTable"]:
        """Mobius-invert a tuple-valued count into ``width`` tables: the
        increment at u' is the inclusion-exclusion difference over u's
        lower neighbours.

        ``count`` is evaluated **once** per unroll point and each component
        of its result feeds one table -- this is how the RRS and register
        tables share a single stream-chain computation per point.  Counts
        keep their native type (the lattice counters all return ints);
        :meth:`box_sum` normalizes to Fraction at the query boundary.
        """
        cache: dict[tuple[int, ...], tuple] = {}
        zero = (0,) * width

        def counted(reduced: tuple[int, ...]) -> tuple:
            if any(c < 0 for c in reduced):
                return zero
            got = cache.get(reduced)
            if got is None:
                got = tuple(count(space.embed(reduced)))
                cache[reduced] = got
            return got

        increments: list[dict[tuple[int, ...], Fraction]] = [
            {} for _ in range(width)]
        ndims = len(space.dims)
        corners = tuple(product((0, 1), repeat=ndims))
        for reduced in space.reduced_box():
            totals = [0] * width
            for signs in corners:
                neighbour = tuple(r - s for r, s in zip(reduced, signs))
                values = counted(neighbour)
                if sum(signs) % 2:
                    for i in range(width):
                        totals[i] -= values[i]
                else:
                    for i in range(width):
                        totals[i] += values[i]
            for i in range(width):
                increments[i][reduced] = totals[i]
        return [OffsetTable(space.dims, space.bounds, inc)
                for inc in increments]

    def box_sum(self, reduced: tuple[int, ...]) -> Fraction:
        """The paper's Sum (Figure 2): accumulate increments over u' <= u.

        O(1) against the prefix sums: coordinates clamp to the box (the
        increments live inside it) and any negative coordinate selects the
        empty box.
        """
        prefix = self._prefix
        if prefix is None or len(reduced) != len(self._sizes):
            return self.box_sum_scan(reduced)
        idx = 0
        for r, size, stride in zip(reduced, self._sizes, self._strides):
            if r < 0:
                return Fraction(0)
            if r >= size:
                r = size - 1
            idx += r * stride
        value = prefix[idx]
        return value if isinstance(value, Fraction) else int_fraction(value)

    def box_sum_scan(self, reduced: tuple[int, ...]) -> Fraction:
        """The O(|increments|) scan: the answer for out-of-box increments
        and the reference for the parity tests."""
        total = Fraction(0)
        for offset, inc in self.increments.items():
            if all(o <= r for o, r in zip(offset, reduced)):
                total += inc
        return total

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
class _Aggregate:
    """Whole-nest int columns over the box, row-major by ``strides``:
    memory ops, registers, g_T, g_S, and the cache cost times
    ``denominator``."""

    strides: tuple[int, ...]
    sums: list[list[int]]
    denominator: int

_UNBUILT = object()

class UnrollTables:
    """Precomputed model of a nest over an unroll space (section 4).

    Build once with :func:`build_tables`; every query is then a table
    lookup.  ``point(u)`` aggregates the per-UGS tables into the quantities
    the balance objective needs.
    """

    def __init__(self, nest: LoopNest, space: UnrollSpace, line_size: int,
                 trip: int, per_ugs: list[UgsTables]):
        self.nest = nest
        self.space = space
        self.line_size = line_size
        self.trip = trip
        self.per_ugs = per_ugs
        self._base_flops = nest.flops_per_iteration()
        self._points: dict[UnrollVector, UnrollPoint] = {}
        self._aggregate = _UNBUILT

    def _build_aggregate(self) -> "_Aggregate | None":
        """Whole-nest counts at every box point, or None when some set's
        table has no integral in-box prefix (then :meth:`_compute_point`
        accumulates per set).

        Each set's prefix array already holds its counts at every box
        point, so the whole-nest counts are their elementwise sums.  The
        cache cost ``base * (g_S + (g_T - g_S) / ℓ)`` is
        ``base * (g_T + (ℓ-1) g_S) / ℓ``; over the common denominator
        ``ℓ * lcm(base denominators)`` each set adds an integer multiple
        of that weight, so the cache cost too is one int array and one
        Fraction per point -- equal to the per-set accumulation.
        """
        space = self.space
        line = self.line_size
        columns = []
        for entry in self.per_ugs:
            tables = (entry.rrs, entry.registers, entry.gts, entry.gss)
            if any(t.dims != space.dims or t.bounds != space.bounds
                   for t in tables):
                return None
            counts = [t.counts() for t in tables]
            if any(c is None for c in counts):
                return None
            columns.append((entry.base_cost, counts))
        scale = 1
        for base, _ in columns:
            scale = lcm(scale, base.denominator)
        sums = [[0] * len(space) for _ in range(5)]
        for base, (rrs, registers, gts, gss) in columns:
            factor = base.numerator * (scale // base.denominator)
            weights = (factor * (t + (line - 1) * g) for t, g in zip(gts, gss))
            for k, column in enumerate((rrs, registers, gts, gss, weights)):
                sums[k] = list(map(add, sums[k], column))
        strides = [1] * len(space.bounds)
        for i in range(len(strides) - 2, -1, -1):
            strides[i] = strides[i + 1] * (space.bounds[i + 1] + 1)
        return _Aggregate(tuple(strides), sums, scale * line)

    def point(self, u: UnrollVector) -> UnrollPoint:
        if u not in self._points:
            self._points[u] = self._compute_point(u)
        return self._points[u]

    def _compute_point(self, u: UnrollVector) -> UnrollPoint:
        if not self.space.contains(u):
            raise ValueError(f"unroll vector {u} outside the table space")
        if self._aggregate is _UNBUILT:
            self._aggregate = self._build_aggregate()
        agg = self._aggregate
        if agg is None:
            return self._per_set_point(u)
        idx = 0
        for dim, stride in zip(self.space.dims, agg.strides):
            idx += u[dim] * stride
        memory_ops, registers, gts, gss, cost = agg.sums
        flops = int_fraction(self._base_flops * body_copies(u))
        return UnrollPoint(
            u, flops, int_fraction(memory_ops[idx]),
            int_fraction(registers[idx]), int_fraction(gts[idx]),
            int_fraction(gss[idx]), Fraction(cost[idx], agg.denominator))

    def _per_set_point(self, u: UnrollVector) -> UnrollPoint:
        """The point at ``u`` by accumulating each set's box sums in
        Fractions: the path for tables without an integral prefix, equal
        to the aggregate wherever both apply."""
        reduced = self.space.project(u)
        memory_ops = Fraction(0)
        registers = Fraction(0)
        gts_total = Fraction(0)
        gss_total = Fraction(0)
        cache_cost = Fraction(0)
        line = Fraction(self.line_size)
        for entry in self.per_ugs:
            g_t = entry.gts.box_sum(reduced)
            g_s = entry.gss.box_sum(reduced)
            memory_ops += entry.rrs.box_sum(reduced)
            registers += entry.registers.box_sum(reduced)
            gts_total += g_t
            gss_total += g_s
            cache_cost += entry.base_cost * (g_s + (g_t - g_s) / line)
        flops = int_fraction(self._base_flops * body_copies(u))
        return UnrollPoint(u, flops, memory_ops, registers, gts_total,
                           gss_total, cache_cost)

    def all_points(self) -> list[UnrollPoint]:
        return [self.point(u) for u in self.space]

def counted_tables(group: UniformlyGeneratedSet, space: UnrollSpace,
                   localized: VectorSpace, line_size: int) -> list[OffsetTable]:
    """The GTS, GSS, RRS and register tables of one set by Mobius inversion
    of counts evaluated at every box point: union-find lattice counts for
    an SIV-separable set, one group per copy otherwise.

    :func:`build_tables` takes this path for the sets the keyed classes of
    :func:`repro.unroll.streams.keyed_counts` do not cover; the parity
    checks use it as the oracle of the keyed path.
    """
    dims = space.dims
    if is_analyzable(group):
        inner = VectorSpace.spanned_by_axes([space.depth - 1], space.depth)
        merges_t = pairwise_merges(group, dims, localized, spatial=False)
        relations = spatial_relations(group, dims, localized)
        # register analysis localizes to the innermost loop (section 4.3)
        merges_r = pairwise_merges(group, dims, inner, spatial=False)

        def count_gts(u):
            return group_count(group, u, dims, localized, spatial=False,
                               merges=merges_t)

        def count_gss(u):
            return group_count_spatial(group, u, dims, localized, line_size,
                                       relations=relations)

        def streams(u):
            return stream_chains(group, u, dims, merges=merges_r)
    else:
        def count_gts(u):
            return conservative_group_count(group, u, dims)

        def count_gss(u):
            return conservative_group_count(group, u, dims, spatial=True)

        def streams(u):
            return conservative_chains(group, u, dims)

    def count(u):
        summary = streams(u)
        return (count_gts(u), count_gss(u), summary.memory_ops,
                summary.registers)

    return OffsetTable.from_counts_multi(space, count, 4)

def build_tables(nest: LoopNest, space: UnrollSpace, line_size: int = 4,
                 trip: int = 100,
                 localized: VectorSpace | None = None,
                 ugs: list[UniformlyGeneratedSet] | None = None,
                 ugs_cache=None) -> UnrollTables:
    """Build the GTS/GSS/RRS/RL tables for every UGS of ``nest``.

    ``localized`` is the cache-localized space (default: innermost loop).
    Register analysis always uses the innermost loop, per section 4.3.
    ``ugs`` optionally supplies the precomputed UGS partition (the engine
    reuses the one from its analysis artifacts).  An SIV-separable set
    under an axis-spanned ``localized`` is counted from keyed location
    classes (:func:`repro.unroll.streams.keyed_counts`); every other set
    goes through :func:`counted_tables`.

    ``ugs_cache`` (a :class:`repro.engine.ugscache.UgsTableCache`, or any
    object with the same ``key_for``/``fetch``/``store`` surface)
    memoizes per-set tables under their canonical signature, so sets seen
    in *any* previously built nest are served in O(1).
    """
    localized = localized if localized is not None else innermost_localized_space(nest)
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
        keyed = keyed_counts(group, space, localized, line_size)
        if keyed is not None:
            tables = OffsetTable.from_counts_multi(space, keyed, 4)
        else:
            tables = counted_tables(group, space, localized, line_size)
        gts, gss, rrs, registers = tables
        entry = UgsTables(ugs=group, base_cost=base, gts=gts, gss=gss,
                          rrs=rrs, registers=registers)
        if ugs_cache is not None:
            ugs_cache.store(cache_key, entry)
        per_ugs.append(entry)
    return UnrollTables(nest, space, line_size, trip, per_ugs)
