"""The dependence-based reuse model (the Carr-Kennedy / Carr'96 baseline).

Where the UGS model answers reuse questions with linear algebra, this
baseline derives *reference groups* from a dependence graph that must
include input (read-read) dependences -- the storage the paper's Table 1
measures.  Reuse groups are connected components of register-consistent
dependences (zero distance on every loop except the innermost); register
chains and memory-operation counts follow from the edge distances.

For unroll selection the baseline measures every candidate vector on the
materialized unrolled body's *full* dependence graph, so its per-decision
cost includes building and storing all those input dependences; the
experiment drivers report exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.balance import loop_balance, objective
from repro.balance.loop_balance import BalanceBreakdown
from repro.dependence.graph import DependenceGraph, build_dependence_graph
from repro.dependence.siv import STAR
from repro.ir.matrixform import RefOccurrence, constant_vector, occurrences
from repro.ir.nodes import LoopNest
from repro.machine.model import MachineModel
from repro.reuse.unionfind import UnionFind
from repro.unroll.space import UnrollSpace, UnrollVector, body_copies
from repro.unroll.tables import UnrollPoint
from repro.unroll.transform import unroll_and_jam

def _register_consistent(distance, depth: int) -> bool:
    """True when the dependence can be exploited by registers: zero
    distance on every loop except the innermost, whose distance is a known
    integer or invariant."""
    for level, entry in enumerate(distance):
        if level == depth - 1:
            if entry == STAR:
                return False
            continue
        if entry != 0:
            return False
    return True

def dependence_reference_groups(nest: LoopNest,
                                graph: DependenceGraph | None = None
                                ) -> list[list[RefOccurrence]]:
    """Reference groups (the dependence-based analogue of innermost-local
    GTSs) from register-consistent dependence edges."""
    if graph is None:
        graph = build_dependence_graph(nest, include_input=True)
    occs = occurrences(nest)
    index = {occ.position: i for i, occ in enumerate(occs)}
    uf = UnionFind(len(occs))
    for dep in graph:
        if dep.kind not in ("flow", "input", "output"):
            continue
        if _register_consistent(dep.distance, nest.depth):
            uf.union(index[dep.src.position], index[dep.dst.position])
    # occurrences() is in position order, so sorting by root index is
    # sorting by the root's position, and each component is sorted.
    return [[occs[i] for i in nodes]
            for _, nodes in sorted(uf.components().items())]

def _group_chains(group: list[RefOccurrence],
                  inner_name: str) -> tuple[int, int]:
    """(memory ops, registers) for one reference group via def-split
    chains ordered by innermost touch time."""
    def touch_time(occ: RefOccurrence) -> Fraction:
        for sub in occ.ref.subscripts:
            coef = sub.coeff(inner_name)
            if coef:
                return -Fraction(sub.const, coef)
        return Fraction(0)

    ordered = sorted(group, key=lambda o: (touch_time(o), o.position))
    chains: list[list[RefOccurrence]] = []
    current: list[RefOccurrence] = []
    for occ in ordered:
        if occ.is_write and current:
            chains.append(current)
            current = [occ]
        else:
            current.append(occ)
    if current:
        chains.append(current)
    registers = 0
    for chain in chains:
        times = [touch_time(o) for o in chain]
        registers += int(max(times) - min(times)) + 1
    return len(chains), registers

@dataclass(frozen=True)
class DependenceModelResult:
    """Outcome of the dependence-based unroll search, with the graph-space
    cost it paid."""

    nest: LoopNest
    unroll: UnrollVector
    breakdown: BalanceBreakdown
    objective: Fraction
    total_dependences: int  # summed over every graph built during search
    input_dependences: int

def measure_unrolled_dependence(nest: LoopNest, u: UnrollVector,
                                line_size: int,
                                trip: int = 100
                                ) -> tuple[UnrollPoint, DependenceGraph]:
    """Measure model quantities for unroll u through the dependence lens."""
    main = unroll_and_jam(nest, u).main
    graph = build_dependence_graph(main, include_input=True)
    groups = dependence_reference_groups(main, graph)
    inner_name = main.loops[-1].index

    memory_ops = 0
    registers = 0
    for group in groups:
        ops, regs = _group_chains(group, inner_name)
        memory_ops += ops
        registers += regs

    # Cache cost: one stream per group; invariant/spatial discounts from
    # the subscript of the group leader (the dependence model reads stride
    # information off the subscripts just as Carr'96 does).
    cache_cost = Fraction(0)
    for group in groups:
        leader = group[0]
        inner_coef = 0
        contiguous = False
        invariant = True
        for dim, sub in enumerate(leader.ref.subscripts):
            coef = sub.coeff(inner_name)
            if coef:
                invariant = False
                inner_coef = coef
                contiguous = dim == 0
        if invariant:
            cache_cost += Fraction(1, trip)
        elif contiguous and abs(inner_coef) == 1:
            cache_cost += Fraction(1, line_size)
        else:
            cache_cost += 1
    point = UnrollPoint(
        u=u,
        flops=Fraction(main.flops_per_iteration()),
        memory_ops=Fraction(memory_ops),
        registers=Fraction(registers),
        gts=Fraction(len(groups)),
        gss=Fraction(len(groups)),
        cache_cost=cache_cost,
    )
    return point, graph

def dependence_based_choose(nest: LoopNest, machine: MachineModel,
                            space: UnrollSpace, include_cache: bool = True,
                            trip: int = 100) -> DependenceModelResult:
    """Search ``space`` with the dependence-based model, accounting the
    dependence-graph space consumed along the way."""
    line_size = machine.cache_line_words
    best_u: UnrollVector | None = None
    best_key: tuple | None = None
    best_point: UnrollPoint | None = None
    total_deps = 0
    input_deps = 0
    for u in space:
        point, graph = measure_unrolled_dependence(nest, u, line_size, trip)
        total_deps += graph.total_count
        input_deps += graph.input_count
        if point.registers > machine.registers:
            continue
        key = (objective(point, machine, include_cache), body_copies(u), u)
        if best_key is None or key < best_key:
            best_key, best_u, best_point = key, u, point
    if best_u is None:
        best_u = tuple(0 for _ in range(nest.depth))
        best_point, _ = measure_unrolled_dependence(nest, best_u, line_size,
                                                    trip)
    breakdown = loop_balance(best_point, machine, include_cache)
    return DependenceModelResult(
        nest=nest,
        unroll=best_u,
        breakdown=breakdown,
        objective=abs(breakdown.balance - machine.balance),
        total_dependences=total_deps,
        input_dependences=input_deps,
    )
