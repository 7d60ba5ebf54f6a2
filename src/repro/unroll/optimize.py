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
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Callable, Iterator, Sequence

from repro.balance import loop_balance
from repro.balance.loop_balance import BalanceBreakdown, MissModel
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
    box_copies,
    box_tuple,
)
from repro.unroll.tables import UnrollTables, build_tables

@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the unroll search for one nest.

    ``objective`` comes from the search's integers; the balance terms
    (:attr:`breakdown`, :attr:`balance`) are computed from the tables at
    the chosen vector when first read.
    """

    nest: LoopNest
    unroll: UnrollVector
    objective: Fraction
    feasible: bool  # register constraint satisfied at the chosen vector
    space: UnrollSpace
    tables: UnrollTables
    safety: tuple[int, ...]
    candidates: tuple[int, ...]  # loop levels considered for unrolling
    machine: MachineModel
    include_cache: bool
    miss_model: MissModel | None  # None charges Equation 1

    @cached_property
    def breakdown(self) -> BalanceBreakdown:
        return loop_balance(self.tables.point(self.unroll), self.machine,
                            self.include_cache, self.miss_model)

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
    # ``usable`` is ascending and a reverse sort is stable, so equal
    # scores still go to the lower level.
    ranked = sorted(usable, key=scores.__getitem__, reverse=True)
    chosen = ranked[:max_loops]
    return tuple(sorted(chosen))

@lru_cache(maxsize=1024)
def _rows(sizes: tuple[int, ...]
          ) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], int]:
    """The rows of the row-major box of ``sizes`` (a row fixes every
    coordinate but the last) and their length.  A row is its first index
    and the rows one step below it along each leading coordinate."""
    *head, last = sizes or (1,)
    strides, step = [], 1
    for size in reversed(head):
        strides.append(step)
        step *= size
    strides.reverse()
    rows = tuple((h * last, tuple(h - s for x, s in zip(p, strides) if x))
                 for h, p in enumerate(box_tuple(tuple(head))))
    return rows, last

@lru_cache(maxsize=1024)
def _multipliers(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """``lcm(copies) // copies`` at every point of the box of ``sizes``."""
    copies = box_copies(sizes)
    common = lcm(*copies)
    return tuple(common // c for c in copies)

class BoxRanking:
    """The balance objective of section 3.3 over the box of ``tables``,
    in exact integers (docs/ALGORITHM.md §5).

    The machine's rationals and the aggregate's cost denominator are
    folded once into integer weights, so at box point i

        beta_L - beta_M = num_i / (F_i * x),
        num_i = M_i * x + U_i * y - F_i * z,

    with ``U_i`` the unserviced misses over one common denominator and
    ``x > 0`` fixed for the search.  :meth:`keys` ranks by ``|num_i| / F_i``
    scaled by ``lcm(F)``, an integer: the keys order the box exactly as
    the Fraction keys ``(objective, body copies, u)`` would.
    """

    def __init__(self, tables: UnrollTables, machine: MachineModel,
                 include_cache: bool = True,
                 miss_model: MissModel | None = None):
        self.tables = tables
        self.machine = machine
        self.include_cache = include_cache
        self.miss_model = miss_model
        agg = self._agg = tables.aggregate
        mem, fp = machine.mem_issue, machine.fp_issue
        self._sizes = tuple(b + 1 for b in tables.space.bounds)
        # loop balance divides by max(flops, 1); flops is base * copies
        if agg.flops[0]:
            self._flops, self._mult = agg.flops, _multipliers(self._sizes)
        else:
            self._flops = self._mult = (1,) * len(agg.flops)
        # misses at point i: misses[i] / den
        if not include_cache:
            misses, den = None, 1
        elif miss_model is None:
            misses, den = agg.cost, agg.denominator
        else:
            misses, den = miss_model.scaled_misses(
                agg.memory_ops, agg.cost, agg.denominator)
        # the prefetches p * c_i, where q * c_i is the max of M_i * a,
        # F_i * b and q, are charge * (q * c_i) over lcm(den, p_den * q)
        self._cycles = None
        prefetch = machine.prefetch_bandwidth
        if misses is not None and prefetch:
            q = lcm(mem.numerator, fp.numerator)
            unit = lcm(den, prefetch.denominator * q)
            misses = [m * (unit // den) for m in misses]
            den = unit
            self._cycles = (mem.denominator * (q // mem.numerator),
                            fp.denominator * (q // fp.numerator), q,
                            prefetch.numerator
                            * (unit // (prefetch.denominator * q)))
        self._misses, self._den = misses, den
        # beta_M = mem_issue / fp_issue and the miss cost ratio
        # miss_penalty / cache_access, left unreduced: g reduces the weights
        beta_num = mem.numerator * fp.denominator
        beta_den = mem.denominator * fp.numerator
        x = beta_den * den * machine.cache_access
        y = beta_den * machine.miss_penalty
        z = beta_num * den * machine.cache_access
        g = gcd(x, y, z)
        self._x, self._y, self._z = x // g, y // g, z // g

    def _terms(self, i: int) -> tuple[int, int]:
        """``(num_i, U_i)`` at box index ``i``."""
        memory_ops, flops = self._agg.memory_ops[i], self._flops[i]
        unserviced = 0
        if self._misses is not None:
            unserviced = self._misses[i]
            if self._cycles is not None:
                a, b, q, charge = self._cycles
                unserviced -= charge * max(memory_ops * a, flops * b, q)
            if unserviced < 0:
                unserviced = 0
        return (memory_ops * self._x + unserviced * self._y
                - flops * self._z, unserviced)

    def _index(self, u: UnrollVector) -> int:
        return sum(u[dim] * stride for dim, stride
                   in zip(self.tables.space.dims, self._agg.strides))

    def keys(self) -> Iterator[tuple[int, int, UnrollVector]]:
        """``(objective * lcm(F) * x, body copies, u)`` for every
        register-feasible vector of the box.

        The scan skips every vector that componentwise dominates an
        already-infeasible one: register pressure is monotone
        non-decreasing in the unroll vector, so a dominated point would
        fail its register check anyway.  Row by row, the skipped points
        of a row are those at or past the least stop of the rows one
        step below it and of its own first infeasible point.
        """
        agg = self._agg
        registers, limit = agg.registers, self.machine.registers
        copies, mult = agg.copies, self._mult
        vectors = self.tables.space.vectors()
        rows, last = _rows(self._sizes)
        stops: list[int] = []
        for start, below in rows:
            stop = min([stops[b] for b in below], default=last)
            for i in range(start, start + stop):
                if registers[i] > limit:
                    stop = i - start
                    break
                num, _ = self._terms(i)
                yield abs(num) * mult[i], copies[i], vectors[i]
            stops.append(stop)

    def objective(self, u: UnrollVector) -> Fraction:
        """``|beta_L - beta_M|`` at ``u``."""
        i = self._index(u)
        num, _ = self._terms(i)
        return Fraction(abs(num), self._flops[i] * self._x)

    def miss_cycles(self, u: UnrollVector) -> Fraction:
        """The cycle charge of the unserviced misses at ``u``: the term
        the vectorized estimate (:mod:`repro.simd.cost`) shares with the
        scalar one -- packing changes issue pressure, not the
        footprint."""
        _, unserviced = self._terms(self._index(u))
        return Fraction(unserviced * self.machine.miss_penalty, self._den)

def search_space(ranking: BoxRanking) -> tuple[UnrollVector, bool]:
    """Exhaustive search of the (precomputed) table for the best vector.

    Prefers register-feasible vectors; among those, minimizes the balance
    objective, breaking ties toward fewer body copies then lexicographic
    order.  Falls back to the no-unroll vector when nothing is feasible.

    The ranking's ``miss_model`` (e.g.
    :class:`repro.reuse.profile.AssocMissModel`) swaps the binary
    Equation-1 miss charge in the objective for a set-associative
    estimate; ``None`` keeps the paper's ranking exactly.
    """
    best = min(ranking.keys(), default=None)
    if best is None:
        return tuple(0 for _ in range(ranking.tables.nest.depth)), False
    return best[2], True

#: Vectorized search evaluates the full jam -> pack -> cost chain on at
#: most this many scalar-ranked feasible points (plus no-unroll): packing
#: is orders of magnitude costlier than a table lookup, and the scalar
#: objective is an excellent proposal distribution for it.
SIMD_BEAM = 8

def search_space_vectorized(ranking: BoxRanking, *,
                            estimator: Callable[[UnrollVector, Fraction],
                                                object],
                            beam: int = SIMD_BEAM,
                            ) -> tuple[UnrollVector, bool]:
    """The opt-in ``vectorize=True`` search: rank register-feasible
    vectors by the scalar objective, then re-rank the top ``beam`` (plus
    the no-unroll vector) by the lane cost model's vectorized cycles per
    original iteration.  ``estimator`` maps an unroll vector and its
    unserviced-miss cycles to a :class:`repro.simd.cost.VectorEstimate`;
    ties fall back to the scalar rank, so a machine whose packs never
    help chooses exactly the scalar vector.
    """
    ranked = [u for *_, u in sorted(ranking.keys())]
    zero = tuple(0 for _ in range(ranking.tables.nest.depth))
    if not ranked:
        return zero, False
    shortlist = ranked[:beam]
    if zero not in shortlist and zero in ranked:
        shortlist.append(zero)
    best_u: UnrollVector | None = None
    best_key: tuple | None = None
    for u in shortlist:
        estimate = estimator(u, ranking.miss_cycles(u))
        key = (Fraction(estimate.vector_cycles) / body_copies(u),
               ranked.index(u))
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
        ranking = BoxRanking(tables, machine, include_cache, miss_model)
        if vectorize and machine.vector_width_words > 1:
            from repro.simd import vectorize_jammed
            from repro.unroll.transform import unroll_and_jam

            def estimator(u: UnrollVector, miss_cycles: Fraction):
                return vectorize_jammed(unroll_and_jam(nest, u), machine,
                                        miss_cycles).estimate

            chosen, feasible = search_space_vectorized(ranking,
                                                       estimator=estimator)
        else:
            chosen, feasible = search_space(ranking)
        objective = ranking.objective(chosen)
    return OptimizationResult(
        nest=nest,
        unroll=chosen,
        objective=objective,
        feasible=feasible,
        space=space,
        tables=tables,
        safety=safety,
        candidates=candidates,
        machine=machine,
        include_cache=include_cache,
        miss_model=miss_model,
    )
