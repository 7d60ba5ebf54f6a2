"""The Wolf-Maydan-Chen brute-force baseline (section 5.3 comparison).

For every candidate unroll vector this optimizer *actually unrolls* the
loop body and measures the model quantities on the transformed code:
uniformly generated sets are re-partitioned, reuse groups re-derived, and
register chains re-built from scratch.  That is exactly the cost the
paper's precomputed tables avoid -- and because the measurement path shares
no unroll-specific code with the tables, it doubles as the ground-truth
oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.balance import loop_balance, objective
from repro.balance.loop_balance import BalanceBreakdown
from repro.ir.nodes import LoopNest
from repro.linalg import VectorSpace
from repro.machine.model import MachineModel
from repro.reuse.group import group_spatial_partition, group_temporal_partition
from repro.reuse.locality import innermost_localized_space, self_reuse_base
from repro.reuse.ugs import partition_ugs
from repro.unroll.space import UnrollSpace, UnrollVector, body_copies
from repro.unroll.streams import conservative_chains, is_analyzable, stream_chains
from repro.unroll.tables import UnrollPoint
from repro.unroll.transform import unroll_and_jam

def measure_unrolled(nest: LoopNest, u: UnrollVector, line_size: int = 4,
                     trip: int = 100,
                     localized: VectorSpace | None = None) -> UnrollPoint:
    """Measure the model quantities on the *materialized* unrolled body.

    The jammed main nest is built, its references re-partitioned into UGSs
    and the reuse groups and register chains recomputed directly -- no
    precomputed tables involved.
    """
    main = unroll_and_jam(nest, u).main
    localized = localized if localized is not None else innermost_localized_space(main)
    zero = tuple(0 for _ in range(main.depth))

    memory_ops = Fraction(0)
    registers = Fraction(0)
    gts_total = Fraction(0)
    gss_total = Fraction(0)
    cache_cost = Fraction(0)
    line = Fraction(line_size)
    for ugs in partition_ugs(main):
        g_t = len(group_temporal_partition(ugs, localized))
        g_s = len(group_spatial_partition(ugs, localized, line_size))
        if is_analyzable(ugs):
            summary = stream_chains(ugs, zero, dims=())
        else:
            summary = conservative_chains(ugs, zero, dims=())
        memory_ops += summary.memory_ops
        registers += summary.registers
        gts_total += g_t
        gss_total += g_s
        base, _, _ = self_reuse_base(ugs.matrix, localized, line_size, trip)
        cache_cost += base * (Fraction(g_s) + Fraction(g_t - g_s) / line)

    return UnrollPoint(
        u=u,
        flops=Fraction(main.flops_per_iteration()),
        memory_ops=memory_ops,
        registers=registers,
        gts=gts_total,
        gss=gss_total,
        cache_cost=cache_cost,
    )

@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of the exhaustive unroll search."""

    nest: LoopNest
    unroll: UnrollVector
    breakdown: BalanceBreakdown
    objective: Fraction
    vectors_tried: int
    bodies_materialized: int  # == vectors_tried: the cost the tables avoid

def brute_force_choose(nest: LoopNest, machine: MachineModel,
                       space: UnrollSpace, include_cache: bool = True,
                       trip: int = 100) -> BruteForceResult:
    """Search ``space`` by re-unrolling and re-measuring at every vector."""
    line_size = machine.cache_line_words
    best_u: UnrollVector | None = None
    best_key: tuple | None = None
    best_point: UnrollPoint | None = None
    tried = 0
    for u in space:
        tried += 1
        point = measure_unrolled(nest, u, line_size=line_size, trip=trip)
        if point.registers > machine.registers:
            continue
        key = (objective(point, machine, include_cache), body_copies(u), u)
        if best_key is None or key < best_key:
            best_key, best_u, best_point = key, u, point
    if best_u is None:
        best_u = tuple(0 for _ in range(nest.depth))
        best_point = measure_unrolled(nest, best_u, line_size=line_size,
                                      trip=trip)
    breakdown = loop_balance(best_point, machine, include_cache)
    return BruteForceResult(
        nest=nest,
        unroll=best_u,
        breakdown=breakdown,
        objective=abs(breakdown.balance - machine.balance),
        vectors_tried=tried,
        bodies_materialized=tried,
    )
