"""Choosing unroll amounts (section 4.5).

The driver: pick the (at most two) loops with the best locality as scored
by Equation 1, bound each dimension by safety and the configured limit,
build the tables, and search the whole box for the unroll vector that
brings loop balance closest to machine balance without exceeding the
register file.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from repro.balance import loop_balance, objective
from repro.balance.loop_balance import BalanceBreakdown
from repro.dependence.graph import DependenceGraph, build_dependence_graph
from repro.ir.nodes import LoopNest
from repro.machine.model import MachineModel
from repro.reuse.locality import loop_locality_scores
from repro.reuse.ugs import partition_ugs
from repro.unroll.safety import safe_unroll_bounds
from repro.unroll.space import (
    DEFAULT_BOUND,
    UnrollSpace,
    UnrollVector,
    body_copies,
    dominates,
)
from repro.unroll.tables import UnrollTables, build_tables

@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the unroll search for one nest."""

    nest: LoopNest
    unroll: UnrollVector
    breakdown: BalanceBreakdown
    objective: Fraction
    feasible: bool  # register constraint satisfied at the chosen vector
    space: UnrollSpace
    tables: UnrollTables
    safety: tuple[int, ...]
    candidates: tuple[int, ...]  # loop levels considered for unrolling

    @property
    def balance(self) -> Fraction:
        return self.breakdown.balance

def select_candidate_loops(nest: LoopNest, safety: tuple[int, ...],
                           max_loops: int, line_size: int,
                           scores: Sequence[Fraction] | None = None,
                           ) -> tuple[int, ...]:
    """The loops to unroll: best locality first (section 4.5), restricted
    to outer loops that safety allows to move at all.

    ``line_size`` has no default on purpose: every caller must thread the
    machine's ``cache_line_words`` through, so locality scoring can never
    silently diverge from the balance model's line size.  ``scores`` lets
    callers (the analysis engine) pass memoized
    :func:`loop_locality_scores` instead of recomputing them.
    """
    if scores is None:
        scores = loop_locality_scores(nest, line_size=line_size)
    usable = [level for level in range(nest.depth - 1) if safety[level] > 0]
    ranked = sorted(usable, key=lambda lv: (-scores[lv], lv))
    chosen = ranked[:max_loops]
    return tuple(sorted(chosen))

def _feasible(tables: UnrollTables, machine: MachineModel,
              include_cache: bool, miss_model,
              ) -> Iterator[tuple[tuple, UnrollVector]]:
    """``(key, u)`` for every register-feasible vector of the box, where
    ``key`` orders by the balance objective, then fewer body copies, then
    lexicographic order.

    The scan skips every vector that componentwise dominates an
    already-infeasible one: register pressure is monotone non-decreasing
    in the unroll vector, so a dominated point would fail its register
    check anyway.
    """
    space = tables.space
    infeasible: list[tuple[int, ...]] = []
    for reduced in space.reduced_box():
        if infeasible and any(dominates(reduced, floor)
                              for floor in infeasible):
            continue
        u = space.embed(reduced)
        point = tables.point(u)
        if point.registers > machine.registers:
            infeasible.append(reduced)
            continue
        yield (objective(point, machine, include_cache, miss_model),
               body_copies(u), u), u

def search_space(tables: UnrollTables, machine: MachineModel,
                 include_cache: bool = True,
                 miss_model=None) -> tuple[UnrollVector, bool]:
    """Exhaustive search of the (precomputed) table for the best vector.

    Prefers register-feasible vectors; among those, minimizes the balance
    objective, breaking ties toward fewer body copies then lexicographic
    order.  Falls back to the no-unroll vector when nothing is feasible.

    ``miss_model`` (e.g. :class:`repro.reuse.profile.AssocMissModel`)
    swaps the binary Equation-1 miss charge in the objective for a
    set-associative estimate; ``None`` keeps the paper's ranking exactly.
    """
    best = min(_feasible(tables, machine, include_cache, miss_model),
               default=None)
    if best is None:
        return tuple(0 for _ in range(tables.nest.depth)), False
    return best[1], True

#: Vectorized search evaluates the full jam -> pack -> cost chain on at
#: most this many scalar-ranked feasible points (plus no-unroll): packing
#: is orders of magnitude costlier than a table lookup, and the scalar
#: objective is an excellent proposal distribution for it.
SIMD_BEAM = 8

def search_space_vectorized(tables: UnrollTables, machine: MachineModel,
                            include_cache: bool = True,
                            miss_model=None, *,
                            estimator: Callable[[UnrollVector], object],
                            beam: int = SIMD_BEAM,
                            ) -> tuple[UnrollVector, bool]:
    """The opt-in ``vectorize=True`` search: rank register-feasible
    vectors by the scalar objective, then re-rank the top ``beam`` (plus
    the no-unroll vector) by the lane cost model's vectorized cycles per
    original iteration.  ``estimator`` maps an unroll vector to a
    :class:`repro.simd.cost.VectorEstimate`; ties fall back to the
    scalar key, so a machine whose packs never help chooses exactly the
    scalar vector.
    """
    ranked = sorted(_feasible(tables, machine, include_cache, miss_model))
    if not ranked:
        return tuple(0 for _ in range(tables.nest.depth)), False
    shortlist = [u for _, u in ranked[:beam]]
    zero = tuple(0 for _ in range(tables.nest.depth))
    if zero not in shortlist and any(u == zero for _, u in ranked):
        shortlist.append(zero)
    scalar_key = dict((u, key) for key, u in ranked)
    best_u: UnrollVector | None = None
    best_key: tuple | None = None
    for u in shortlist:
        estimate = estimator(u)
        key = (Fraction(estimate.vector_cycles) / body_copies(u),
               scalar_key[u])
        if best_key is None or key < best_key:
            best_key, best_u = key, u
    assert best_u is not None
    return best_u, True

def _no_stage(_name: str):
    return nullcontext()

def choose_unroll(nest: LoopNest, machine: MachineModel,
                  bound: int = DEFAULT_BOUND, max_loops: int = 2,
                  include_cache: bool = True,
                  trip: int = 100, *,
                  graph: DependenceGraph | None = None,
                  safety: tuple[int, ...] | None = None,
                  scores: Sequence[Fraction] | None = None,
                  ugs: Sequence | None = None,
                  tables_builder: Callable[[LoopNest, UnrollSpace, int, int],
                                           UnrollTables] | None = None,
                  stage: Callable[[str], object] | None = None,
                  miss_model=None,
                  vectorize: bool = False,
                  ) -> OptimizationResult:
    """End-to-end unroll-and-jam decision for one nest (the paper's
    algorithm: tables from uniformly generated sets, then an O(bound^2)
    search).

    The keyword-only parameters let :class:`repro.engine.AnalysisEngine`
    supply its memoized artifacts instead of rebuilding them per call:
    ``graph``/``safety``/``scores``/``ugs`` short-circuit the dependence,
    safety, locality and UGS-partition stages; ``tables_builder`` replaces
    the direct :func:`build_tables` call (the engine passes its cached
    layer); ``stage`` wraps named stages in the caller's instrumentation
    (a callable returning a context manager).  ``miss_model`` ranks
    candidates with a set-associative miss estimate instead of the binary
    Equation-1 charge (see :func:`search_space`); the default ``None``
    reproduces the paper's decision bit-for-bit.

    ``vectorize=True`` swaps the ranking for the SLP lane cost model
    (:func:`search_space_vectorized`): minimize vectorized cycles per
    original iteration, scalar objective as tie-break.  On a machine
    without a vector unit (``vector_width_words <= 1``) the flag is a
    no-op and the scalar decision is returned unchanged.
    """
    stage = stage if stage is not None else _no_stage
    if safety is None:
        if graph is None:
            graph = build_dependence_graph(nest, include_input=False)
        safety = safe_unroll_bounds(nest, graph)
    line_size = machine.cache_line_words
    if scores is None:
        # One partition serves the locality scores and the tables.  The
        # scores keep loop_locality_scores' default trip, not ``trip``,
        # so the chosen loops stay those select_candidate_loops picks.
        if ugs is None:
            ugs = partition_ugs(nest)
        scores = loop_locality_scores(nest, line_size=line_size, ugs=ugs)
    candidates = select_candidate_loops(nest, safety, max_loops, line_size,
                                        scores=scores)
    bounds = tuple(min(bound, safety[level]) for level in candidates)
    space = UnrollSpace(nest.depth, candidates, bounds)
    if tables_builder is not None:
        tables = tables_builder(nest, space, line_size, trip)
    else:
        tables = build_tables(nest, space, line_size=line_size, trip=trip,
                              ugs=list(ugs) if ugs is not None else None)
    with stage("search"):
        if vectorize and machine.vector_width_words > 1:
            from repro.balance.loop_balance import miss_cycles
            from repro.simd import vectorize_jammed
            from repro.unroll.transform import unroll_and_jam

            def estimator(u: UnrollVector):
                point = tables.point(u)
                b = loop_balance(point, machine, include_cache, miss_model)
                return vectorize_jammed(unroll_and_jam(nest, u), machine,
                                        miss_cycles(b, machine)).estimate

            chosen, feasible = search_space_vectorized(
                tables, machine, include_cache, miss_model=miss_model,
                estimator=estimator)
        else:
            chosen, feasible = search_space(tables, machine, include_cache,
                                            miss_model=miss_model)
        point = tables.point(chosen)
        breakdown = loop_balance(point, machine, include_cache, miss_model)
    return OptimizationResult(
        nest=nest,
        unroll=chosen,
        breakdown=breakdown,
        objective=abs(breakdown.balance - machine.balance),
        feasible=feasible,
        space=space,
        tables=tables,
        safety=safety,
        candidates=candidates,
    )
