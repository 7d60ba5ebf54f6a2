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
from typing import Callable

from repro.fastpath import fast_enabled
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
    pairwise_merges,
    spatial_relations,
    stream_chains,
    stream_chains_with_groups,
    used_dims,
)

def _projected_count(count: Callable, dims: tuple[int, ...],
                     used: tuple[int, ...]) -> Callable:
    """Memoize a per-point count on the sub-box of the dims it depends on.

    A count that ignores some unrolled dimensions (its H columns there are
    zero) is constant along them, so the Mobius pass over the full box only
    needs one evaluation per distinct projection onto the used dims -- a
    2-D box over a 1-D set collapses from (b+1)^2 evaluations to b+1.
    """
    if used == dims:
        return count
    cache: dict[tuple[int, ...], tuple] = {}

    def wrapped(u):
        key = tuple(u[d] for d in used)
        got = cache.get(key)
        if got is None:
            got = count(u)
            cache[key] = got
        return got

    return wrapped

class OffsetTable:
    """Per-offset increments over the unroll box, queried by box sum.

    ``table[u'] = T(u')`` such that ``sum(T(u') for u' <= u) = count(u)``;
    entries may be negative (merges remove groups).

    By default the constructor also materializes the *inclusive prefix
    sums* (summed-area table) of the increments over the box, so
    :meth:`box_sum` answers in O(1) instead of scanning every increment.
    The scan is kept as :meth:`box_sum_scan` -- the seed algorithm, the
    fallback for tables whose increments fall outside the declared box,
    and the reference the parity fuzz suite compares against.
    """

    def __init__(self, dims: tuple[int, ...], bounds: tuple[int, ...],
                 increments: dict[tuple[int, ...], Fraction],
                 prefix: bool = True):
        self.dims = dims
        self.bounds = bounds
        self.increments = increments
        self._sizes = tuple(b + 1 for b in bounds)
        strides = [1] * len(bounds)
        for i in range(len(bounds) - 2, -1, -1):
            strides[i] = strides[i + 1] * self._sizes[i + 1]
        self._strides = tuple(strides)
        self._prefix = self._build_prefix() if prefix else None

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
    def from_counts(space: UnrollSpace,
                    count: Callable[[UnrollVector], Fraction | int],
                    prefix: bool = True) -> "OffsetTable":
        """Mobius inversion of ``count`` over the box: the increment at u'
        is the inclusion-exclusion difference over u's lower neighbours."""
        [table] = OffsetTable.from_counts_multi(
            space, lambda u: (count(u),), 1, prefix=prefix)
        return table

    @staticmethod
    def from_counts_multi(space: UnrollSpace,
                          count: Callable[[UnrollVector], tuple],
                          width: int,
                          prefix: bool = True) -> list["OffsetTable"]:
        """Mobius-invert a tuple-valued count into ``width`` tables.

        ``count`` is evaluated **once** per unroll point and each component
        of its result feeds one table -- this is how the RRS and register
        tables share a single stream-chain computation per point.
        """
        cache: dict[tuple[int, ...], tuple] = {}
        # The fast construction keeps counts in their native type (the
        # lattice counters all return ints) and lets box_sum normalize to
        # Fraction at the query boundary; the seed construction
        # (prefix=False) converts eagerly, exactly as the original did.
        zero = (0,) * width if prefix else (Fraction(0),) * width

        def counted(reduced: tuple[int, ...]) -> tuple:
            if any(c < 0 for c in reduced):
                return zero
            got = cache.get(reduced)
            if got is None:
                got = tuple(count(space.embed(reduced)))
                if not prefix:
                    got = tuple(Fraction(v) for v in got)
                cache[reduced] = got
            return got

        increments: list[dict[tuple[int, ...], Fraction]] = [
            {} for _ in range(width)]
        ndims = len(space.dims)
        corners = tuple(product((0, 1), repeat=ndims))
        for reduced in space.reduced_box():
            totals = [0] * width if prefix else [Fraction(0)] * width
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
        return [OffsetTable(space.dims, space.bounds, inc, prefix=prefix)
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
        """The seed O(|increments|) scan (reference for the parity tests)."""
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

class UnrollTables:
    """Precomputed model of a nest over an unroll space (section 4).

    Build once with :func:`build_tables`; every query is then a table
    lookup.  ``point(u)`` aggregates the per-UGS tables into the quantities
    the balance objective needs.
    """

    def __init__(self, nest: LoopNest, space: UnrollSpace, line_size: int,
                 trip: int, per_ugs: list[UgsTables], fast: bool = True):
        self.nest = nest
        self.space = space
        self.line_size = line_size
        self.trip = trip
        self.per_ugs = per_ugs
        self._base_flops = Fraction(nest.flops_per_iteration())
        self._points: dict[UnrollVector, UnrollPoint] = {}
        self._fast = fast
        self._aggregate: dict[str, OffsetTable] | None = None

    def _build_aggregate(self) -> dict[str, OffsetTable]:
        """Whole-nest tables: one summed-area table per model quantity.

        Box sums are linear in the increments, so summing the per-UGS
        increment tables (and folding each set's Equation-1 base factor
        into a combined cache-cost table) gives tables whose single O(1)
        box sum equals the per-UGS accumulation of :meth:`_compute_point`
        exactly -- point queries stop scaling with the number of UGSs.
        """
        line = Fraction(self.line_size)
        combined: dict[str, dict] = {key: {} for key in
                                     ("memory_ops", "registers", "gts",
                                      "gss", "cache_cost")}
        for entry in self.per_ugs:
            for key, table in (("memory_ops", entry.rrs),
                               ("registers", entry.registers),
                               ("gts", entry.gts), ("gss", entry.gss)):
                acc = combined[key]
                for offset, inc in table.increments.items():
                    acc[offset] = acc.get(offset, 0) + inc
            cache = combined["cache_cost"]
            gts_inc = entry.gts.increments
            gss_inc = entry.gss.increments
            for offset in gts_inc.keys() | gss_inc.keys():
                g_t = gts_inc.get(offset, 0)
                g_s = gss_inc.get(offset, 0)
                cache[offset] = cache.get(offset, 0) + \
                    entry.base_cost * (g_s + (g_t - g_s) / line)
        return {key: OffsetTable(self.space.dims, self.space.bounds, acc)
                for key, acc in combined.items()}

    def point(self, u: UnrollVector) -> UnrollPoint:
        if u not in self._points:
            self._points[u] = self._compute_point(u)
        return self._points[u]

    def _compute_point(self, u: UnrollVector) -> UnrollPoint:
        if not self.space.contains(u):
            raise ValueError(f"unroll vector {u} outside the table space")
        reduced = self.space.project(u)
        flops = self._base_flops * body_copies(u)
        if self._fast:
            agg = self._aggregate
            if agg is None:
                agg = self._aggregate = self._build_aggregate()
            return UnrollPoint(
                u, flops,
                agg["memory_ops"].box_sum(reduced),
                agg["registers"].box_sum(reduced),
                agg["gts"].box_sum(reduced),
                agg["gss"].box_sum(reduced),
                agg["cache_cost"].box_sum(reduced))
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
        return UnrollPoint(u, flops, memory_ops, registers, gts_total,
                           gss_total, cache_cost)

    def all_points(self) -> list[UnrollPoint]:
        return [self.point(u) for u in self.space]

def build_tables(nest: LoopNest, space: UnrollSpace, line_size: int = 4,
                 trip: int = 100,
                 localized: VectorSpace | None = None,
                 ugs: list[UniformlyGeneratedSet] | None = None,
                 fast: bool = True, ugs_cache=None) -> UnrollTables:
    """Build the GTS/GSS/RRS/RL tables for every UGS of ``nest``.

    ``localized`` is the cache-localized space (default: innermost loop).
    Register analysis always uses the innermost loop, per section 4.3.
    ``ugs`` optionally supplies the precomputed UGS partition (the engine
    reuses the one from its analysis artifacts).  ``fast=False`` runs the
    seed construction -- separate stream-chain evaluations per table and
    scan-only box sums -- kept for the parity suite and the cold-analysis
    benchmark's seed measurement.

    ``ugs_cache`` (a :class:`repro.engine.ugscache.UgsTableCache`, or any
    object with the same ``key_for``/``fetch``/``store`` surface)
    memoizes per-set tables under their canonical signature, so sets seen
    in *any* previously built nest are served in O(1).  Consulted only on
    the fast path -- seed-mode builds (``fast=False`` or inside
    :func:`repro.fastpath.seed_algorithms`) always recompute.
    """
    localized = localized if localized is not None else innermost_localized_space(nest)
    inner = VectorSpace.spanned_by_axes([nest.depth - 1], nest.depth)
    sets = partition_ugs(nest) if ugs is None else ugs
    use_cache = ugs_cache is not None and fast and fast_enabled()
    per_ugs: list[UgsTables] = []
    for group in sets:
        if use_cache:
            cache_key = ugs_cache.key_for(group, space, localized,
                                          line_size, trip)
            cached = ugs_cache.fetch(cache_key, group)
            if cached is not None:
                per_ugs.append(cached)
                continue
        base, _, _ = self_reuse_base(group.matrix, localized, line_size,
                                     trip)
        gts = None  # built jointly with the stream tables when shareable
        if is_analyzable(group):
            merges_t = pairwise_merges(group, space.dims, localized,
                                       spatial=False)
            relations_s = spatial_relations(group, space.dims, localized)
            # Register analysis localizes to the innermost loop; when the
            # cache-localized space *is* the innermost loop (the default),
            # the merge enumeration is argument-identical and shared.
            if fast and localized == inner:
                merges_r = merges_t
            else:
                merges_r = pairwise_merges(group, space.dims, inner,
                                           spatial=False)

            def count_gts(u, _ugs=group, _m=merges_t):
                return group_count(_ugs, u, space.dims, localized,
                                   spatial=False, merges=_m)

            def count_gss(u, _ugs=group, _r=relations_s):
                return group_count_spatial(_ugs, u, space.dims, localized,
                                           line_size, relations=_r)

            if fast:
                used = used_dims(group.matrix, space.dims, spatial=False)
                count_gss = _projected_count(count_gss, space.dims, used)
                read_only = not any(m.is_write for m in group.members)
                if merges_r is merges_t:
                    # GTS and the stream forest union the same merges over
                    # the same lattice: one union-find per point yields the
                    # group count, the memory ops and the register count.
                    def count_joint(u, _ugs=group, _m=merges_t):
                        summary, groups = stream_chains_with_groups(
                            _ugs, u, space.dims, merges=_m)
                        return (groups, summary.memory_ops,
                                summary.registers)

                    if read_only:
                        # Read-only sets: copies along unsubscripted dims
                        # are textually identical loads that never split a
                        # chain, so the summary is constant along them too.
                        count_joint = _projected_count(count_joint,
                                                       space.dims, used)
                    gts, rrs, registers = OffsetTable.from_counts_multi(
                        space, count_joint, 3)
                else:
                    def count_streams(u, _ugs=group, _m=merges_r):
                        summary = stream_chains(_ugs, u, space.dims,
                                                merges=_m)
                        return (summary.memory_ops, summary.registers)

                    count_gts = _projected_count(count_gts, space.dims,
                                                 used)
                    if read_only:
                        count_streams = _projected_count(count_streams,
                                                         space.dims, used)
                    gts = OffsetTable.from_counts(space, count_gts)
                    rrs, registers = OffsetTable.from_counts_multi(
                        space, count_streams, 2)
            else:
                def count_rrs(u, _ugs=group, _m=merges_r):
                    return stream_chains(_ugs, u, space.dims,
                                         merges=_m).memory_ops

                def count_reg(u, _ugs=group, _m=merges_r):
                    return stream_chains(_ugs, u, space.dims,
                                         merges=_m).registers

                rrs = OffsetTable.from_counts(space, count_rrs, prefix=False)
                registers = OffsetTable.from_counts(space, count_reg,
                                                    prefix=False)
        else:
            def count_gts(u, _ugs=group):
                return conservative_group_count(_ugs, u, space.dims)

            def count_gss(u, _ugs=group):
                return conservative_group_count(_ugs, u, space.dims,
                                                spatial=True)

            if fast:
                def count_streams(u, _ugs=group):
                    summary = conservative_chains(_ugs, u, space.dims)
                    return (summary.memory_ops, summary.registers)

                count_gts = _projected_count(
                    count_gts, space.dims,
                    used_dims(group.matrix, space.dims, spatial=False))
                count_gss = _projected_count(
                    count_gss, space.dims,
                    used_dims(group.matrix, space.dims, spatial=True))
                rrs, registers = OffsetTable.from_counts_multi(
                    space, count_streams, 2)
            else:
                def count_rrs(u, _ugs=group):
                    return conservative_chains(_ugs, u, space.dims).memory_ops

                def count_reg(u, _ugs=group):
                    return conservative_chains(_ugs, u, space.dims).registers

                rrs = OffsetTable.from_counts(space, count_rrs, prefix=False)
                registers = OffsetTable.from_counts(space, count_reg,
                                                    prefix=False)

        if gts is None:
            gts = OffsetTable.from_counts(space, count_gts, prefix=fast)
        entry = UgsTables(
            ugs=group,
            base_cost=base,
            gts=gts,
            gss=OffsetTable.from_counts(space, count_gss, prefix=fast),
            rrs=rrs,
            registers=registers,
        )
        if use_cache:
            ugs_cache.store(cache_key, entry)
        per_ugs.append(entry)
    return UnrollTables(nest, space, line_size, trip, per_ugs, fast=fast)
