"""The per-UGS memory-cost model (Equation 1 of the paper).

For a uniformly generated set with ``g_T`` group-temporal sets and ``g_S``
group-spatial sets over a localized vector space L, with cache-line size ℓ
(in words) and symbolic trip count N for localized loops:

    accesses/iteration = base * (g_S + (g_T - g_S) / ℓ)

    base = 1 / N^k   if k = dim(R_ST ∩ L) > 0   (self-temporal)
         = 1 / ℓ     elif dim(R_SS ∩ L) > 0     (self-spatial)
         = 1         otherwise

Each group-spatial set pays one leading access stream; the extra
group-temporal sets sharing its lines only pay the line-boundary fraction.
Self reuse scales the whole set: a self-temporal set is touched once per
N iterations of the localized loops; a self-spatial one misses once per
line.  (The scanned Equation 1 is unreadable; see DESIGN.md for the
provenance of this reconstruction.)

When every set is SIV-separable, g_T and g_S come from the keyed
location classes of :func:`repro.linalg.siv.group_counts` and
:func:`loop_locality_scores` sums the costs as integers over the common
denominator ``ℓ² · trip^depth``.  The pairwise partitions of
:mod:`repro.reuse.group` are the path for every other set and the oracle
the keyed counts are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.ir.nodes import LoopNest
from repro.linalg import Matrix, VectorSpace, siv
from repro.reuse.group import group_spatial_partition, group_temporal_partition
from repro.reuse.selfreuse import (
    has_self_spatial,
    localized_temporal_dim,
)
from repro.reuse.ugs import UniformlyGeneratedSet, partition_ugs

#: Symbolic trip count used to amortize self-temporal reuse.  Any large
#: value works; costs involving it vanish against per-iteration terms.
DEFAULT_TRIP = 100

def innermost_localized_space(nest: LoopNest) -> VectorSpace:
    """The default localized space: the innermost loop only."""
    return VectorSpace.spanned_by_axes([nest.depth - 1], nest.depth)

@dataclass(frozen=True)
class LocalitySummary:
    """Reuse accounting for one UGS under a localized space."""

    ugs: UniformlyGeneratedSet
    g_t: int
    g_s: int
    self_temporal_dim: int
    self_spatial: bool
    cost: Fraction  # memory accesses per iteration (Equation 1)

def self_reuse_base(matrix: Matrix, localized: VectorSpace, line_size: int,
                    trip: int = DEFAULT_TRIP) -> tuple[Fraction, int, bool]:
    """Equation 1's self-reuse factor ``base`` together with the facts it
    rests on: ``(base, dim(R_ST ∩ L), self-spatial?)``."""
    k = localized_temporal_dim(matrix, localized)
    spatial = has_self_spatial(matrix, localized)
    if k > 0:
        base = Fraction(1, trip ** k)
    elif spatial:
        base = Fraction(1, line_size)
    else:
        base = Fraction(1)
    return base, k, spatial

def _summary(ugs: UniformlyGeneratedSet, localized: VectorSpace,
             line_size: int, trip: int, g_t: int, g_s: int) -> LocalitySummary:
    base, k, spatial = self_reuse_base(ugs.matrix, localized, line_size,
                                       trip)
    cost = base * (Fraction(g_s) + Fraction(g_t - g_s, line_size))
    return LocalitySummary(ugs, g_t, g_s, k, spatial, cost)

def pairwise_memory_cost(ugs: UniformlyGeneratedSet, localized: VectorSpace,
                         line_size: int,
                         trip: int = DEFAULT_TRIP) -> LocalitySummary:
    """Equation 1 with g_T and g_S from the pairwise partitions of
    :mod:`repro.reuse.group`: the path for sets the keyed classes do not
    cover, and their oracle."""
    return _summary(ugs, localized, line_size, trip,
                    len(group_temporal_partition(ugs, localized)),
                    len(group_spatial_partition(ugs, localized, line_size)))

def ugs_memory_cost(ugs: UniformlyGeneratedSet, localized: VectorSpace,
                    line_size: int, trip: int = DEFAULT_TRIP) -> LocalitySummary:
    """Equation 1 for one uniformly generated set."""
    form = siv.closed_form(ugs.matrix, localized)
    if form is None:
        return pairwise_memory_cost(ugs, localized, line_size, trip)
    return _summary(ugs, localized, line_size, trip,
                    *siv.group_counts(*form, ugs.constants(), line_size))

def nest_memory_cost(nest: LoopNest, localized: VectorSpace | None = None,
                     line_size: int = 4,
                     trip: int = DEFAULT_TRIP,
                     ugs: list[UniformlyGeneratedSet] | None = None,
                     ) -> tuple[Fraction, list[LocalitySummary]]:
    """Total Equation-1 cost of a nest plus the per-UGS breakdown.

    ``ugs`` optionally supplies a precomputed partition; callers scoring a
    nest under several localized spaces partition once and reuse it.
    """
    localized = localized if localized is not None else innermost_localized_space(nest)
    sets = partition_ugs(nest) if ugs is None else ugs
    summaries = [ugs_memory_cost(group, localized, line_size, trip)
                 for group in sets]
    total = sum((s.cost for s in summaries), Fraction(0))
    return total, summaries

def loop_locality_scores(nest: LoopNest, line_size: int = 4,
                         trip: int = DEFAULT_TRIP,
                         ugs: list[UniformlyGeneratedSet] | None = None,
                         ) -> list[Fraction]:
    """Per-loop locality benefit used to pick the loops to unroll (§4.5).

    Score of loop k = the Equation-1 cost with the localized space extended
    by loop k's direction, subtracted from the innermost-only cost: loops
    whose localization removes the most memory cost carry the most reuse,
    and are the best unroll-and-jam candidates.  ``ugs`` optionally
    supplies the precomputed partition, as for :func:`nest_memory_cost`.

    Integer keyed classes score a nest whose sets are all SIV-separable;
    :func:`pairwise_locality_scores` scores the rest.
    """
    # One partition serves all depth+1 scorings.
    sets = partition_ugs(nest) if ugs is None else ugs
    if all(group.matrix.siv_rows() is not None for group in sets):
        return _keyed_scores(nest.depth, sets, line_size, trip)
    return pairwise_locality_scores(nest, line_size, trip, sets)

def pairwise_locality_scores(nest: LoopNest, line_size: int = 4,
                             trip: int = DEFAULT_TRIP,
                             ugs: list[UniformlyGeneratedSet] | None = None,
                             ) -> list[Fraction]:
    """:func:`loop_locality_scores` from the pairwise partitions and
    Fraction costs (:func:`pairwise_memory_cost`) under a
    :class:`VectorSpace` per candidate: the non-SIV path and the oracle
    of the keyed scores."""
    sets = partition_ugs(nest) if ugs is None else ugs
    base_space = innermost_localized_space(nest)

    def cost(localized: VectorSpace) -> Fraction:
        return sum((pairwise_memory_cost(group, localized, line_size,
                                         trip).cost for group in sets),
                   Fraction(0))

    base_cost = cost(base_space)
    scores: list[Fraction] = []
    for level in range(nest.depth):
        if level == nest.depth - 1:
            scores.append(Fraction(0))  # the innermost loop is never unrolled
            continue
        extended = base_space.sum(
            VectorSpace.spanned_by_axes([level], nest.depth))
        scores.append(base_cost - cost(extended))
    return scores

def _keyed_scores(depth: int, sets: list[UniformlyGeneratedSet],
                  line_size: int, trip: int) -> list[Fraction]:
    """:func:`loop_locality_scores` for SIV-separable sets, in integers.

    Each localized space is an axis tuple: ``(inner,)`` for the base cost
    and ``(level, inner)`` per candidate.  A set's Equation-1 cost times
    ``ℓ² · trip^depth`` is the integer ``W · ℓ · trip^(depth-k)`` when it
    is self-temporal (k > 0), ``W · trip^depth`` when self-spatial and
    ``W · ℓ · trip^depth`` otherwise, with ``W = g_T + (ℓ-1) · g_S``.
    An axis that drives no row of a set leaves its keys alone, so the
    counts are shared between the spaces with the same driving axes.
    """
    inner = depth - 1
    spaces = [(inner,)] + [(level, inner) for level in range(inner)]
    totals = [0] * len(spaces)
    full = trip ** depth
    for group in sets:
        rows = group.matrix.siv_rows()
        consts = group.constants()
        drivers = {entry[0] for entry in rows if entry is not None}
        counts: dict[tuple[int, ...], tuple[int, int]] = {}
        for n, axes in enumerate(spaces):
            driving = tuple(axis for axis in axes if axis in drivers)
            got = counts.get(driving)
            if got is None:
                got = counts[driving] = siv.group_counts(rows, driving,
                                                         consts, line_size)
            g_t, g_s = got
            weight = g_t + (line_size - 1) * g_s
            k = siv.temporal_dim(rows, axes)
            if k > 0:
                totals[n] += weight * line_size * trip ** (depth - k)
            elif siv.self_spatial(rows, axes):
                totals[n] += weight * full
            else:
                totals[n] += weight * line_size * full
    denominator = line_size * line_size * full
    return [Fraction(totals[0] - total, denominator)
            for total in totals[1:]] + [Fraction(0)]
