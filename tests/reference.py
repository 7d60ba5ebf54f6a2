"""The reference paths, for parity tests.

Production code always takes the integer paths: Bareiss elimination for
integral matrices, the closed-form SIV kernel of
:mod:`repro.linalg.siv`, keyed location classes for the unroll tables and
keyed class counts for the locality scores.  :func:`rational_reference`
swaps each of them for the algorithm it must agree with, so a test can
run the same public entry point both ways and compare:

* ``siv.closed_form`` answers None, so group reuse, self reuse and merges
  take the rational solvers;
* :func:`repro.unroll.tables.build_tables` counts every set with
  :func:`reference_columns` (the union-find lattice counts) instead of
  :func:`repro.unroll.streams.keyed_counts`;
* :func:`repro.unroll.optimize.choose_unroll` scores loops with
  :func:`repro.reuse.locality.pairwise_locality_scores` and ranks the box
  with :func:`reference_search`, the Fraction balance objective of
  :func:`repro.balance.objective` at every scanned point, in place of
  the integer keys of :meth:`repro.unroll.optimize.BoxRanking.keys`;
* ``Matrix._rref`` and ``Matrix.rank`` run Gauss-Jordan elimination over
  Fractions (``Matrix._rref_fraction``).

``Matrix.siv_rows`` is left alone on purpose: the conservative-set test
(``streams.is_analyzable``) reads it, so hiding it would send every set
down the conservative path and change the decisions.

The union-find lattice counters (:func:`group_count`,
:func:`group_count_spatial`, and :func:`conservative_group_count` for
non-SIV sets) take merge relations from the merge-point solver and count
the components of the copy lattice one box point at a time, with
:func:`repro.unroll.streams.stream_chains` for the register streams.
:func:`counted_tables` evaluates them into the four count tables of a set:
the oracle of the keyed tables.

The tuple class keys (:func:`key_rules`, :func:`class_key`) and the
whole-chain recount :func:`chain_stats` are the oracles of the integer
keys of :func:`repro.unroll.streams.copy_keys` and
:func:`repro.linalg.siv.linear_keys` and of the neighbour update of
:func:`repro.unroll.streams.touch_insert`.

:func:`count_increments` and :func:`paper_sum` are the paper's table form
(per-offset increments and the ``Sum`` scan of Figure 2), the reference
the dense count tables of :class:`repro.unroll.tables.OffsetTable` are
compared against.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator
from unittest import mock

import repro.unroll.optimize
import repro.unroll.tables
from repro.balance import objective
from repro.linalg import Matrix, VectorSpace, siv
from repro.linalg.matrix import SivRows
from repro.reuse.locality import pairwise_locality_scores
from repro.reuse.ugs import UniformlyGeneratedSet
from repro.reuse.unionfind import UnionFind
from repro.unroll.optimize import BoxRanking
from repro.unroll.space import UnrollSpace, UnrollVector, body_copies, dominates
from repro.unroll.streams import (
    PairMerge,
    _box_geometry,
    _clipped_indices,
    _union_merges,
    conservative_chains,
    is_analyzable,
    pairwise_merges,
    stream_chains,
    used_dims,
)
from repro.unroll.tables import OffsetTable

def count_increments(counts: list[int], bounds: tuple[int, ...]
                     ) -> dict[tuple[int, ...], int]:
    """The paper's per-offset increments of a row-major count table over
    the box ``0..bounds[k]``: the inclusion-exclusion difference over each
    point's lower neighbours (a bijection with the counts)."""
    box = list(product(*(range(b + 1) for b in bounds)))
    value = dict(zip(box, counts))
    increments = {}
    for point in box:
        total = 0
        for signs in product((0, 1), repeat=len(bounds)):
            lower = tuple(p - s for p, s in zip(point, signs))
            if min(lower, default=0) >= 0:
                total += (-1) ** sum(signs) * value[lower]
        increments[point] = total
    return increments

def paper_sum(increments: dict[tuple[int, ...], int],
              query: tuple[int, ...]) -> int:
    """The paper's Sum (Figure 2): every increment at an offset <= query."""
    return sum(inc for offset, inc in increments.items()
               if all(o <= q for o, q in zip(offset, query)))

# -- tuple class keys and whole-chain stats ----------------------------------

KeyRules = tuple[tuple[int | None, int], ...]

def key_rules(rows: SivRows, axes: tuple[int, ...],
              pos: dict[int, int]) -> KeyRules:
    """How each row keys a copy: ``(p, h)`` on ``c_r + h * b[p]`` (driven by
    the unrolled dim at reduced position p), ``(None, |h|)`` on
    ``c_r mod |h|`` (driven by an axis of L; checked first), ``(None, 0)``
    on ``c_r`` (any other row)."""
    rules = []
    for col, coef in (entry or (None, 0) for entry in rows):
        if col in axes:
            rules.append((None, abs(coef)))
        elif col in pos:
            rules.append((pos[col], coef))
        else:
            rules.append((None, 0))
    return tuple(rules)

def class_key(rules: KeyRules, const: tuple[int, ...],
              b: tuple[int, ...]) -> tuple[int, ...]:
    """The class key of the copy at offset ``b`` of the member with
    constant vector ``const``."""
    return tuple(c + h * b[p] if p is not None else c % h if h else c
                 for (p, h), c in zip(rules, const))

def chain_stats(stream: list[tuple], scale: int) -> tuple[int, int, int]:
    """(memory ops, registers, writes) of one stream class whose copies are
    ``(time, ..., is_write)`` tuples in touch order, less ``writes`` per
    copy along the unused dims.

    A definition opens a chain unless it leads the stream, and a chain needs
    its time span plus one register; a definition that leads its touch
    time cuts the span between it and the previous time out of the total.
    Touch times are in units of ``1/scale`` and congruent modulo ``scale``
    within a class.
    """
    lead = 0 if stream[0][-1] else 1
    writes = gaps = 0
    prev = stream[0][0]
    for time, *_, is_write in stream:
        if is_write:
            writes += 1
            gaps += time - prev
        prev = time
    span = stream[-1][0] - stream[0][0]
    return lead, lead + (span - gaps) // scale, writes

# -- the union-find lattice counts -------------------------------------------

def group_count(ugs: UniformlyGeneratedSet, u: UnrollVector,
                dims: tuple[int, ...], localized: VectorSpace,
                spatial: bool = False,
                line_size: int | None = None,
                merges: list[PairMerge] | None = None) -> int:
    """Number of reuse groups (GTS or GSS) among all copies at unroll u.

    Copy ``i @ (b + k)`` and copy ``j @ b`` share a group when k solves the
    pair's merge equation; components of that relation are the groups.
    """
    reduced = used_dims(ugs.matrix, dims, spatial)
    if merges is None:
        merges = pairwise_merges(ugs, dims, localized, spatial, line_size)
    sizes, strides, box_size = _box_geometry(u, reduced)
    uf = UnionFind(ugs.size * box_size)
    _union_merges(uf, merges, sizes, strides, box_size)
    return uf.component_count()

@dataclass(frozen=True)
class SpatialRelation:
    """How copies of members i and j of a UGS share cache lines.

    Copies ``i @ a`` and ``j @ b`` are group-spatial related when
    ``a - b`` equals ``det_offset`` on the determined dimensions and the
    first-dimension residual, after the free (contiguous-dimension)
    offsets move it, stays within a line:

        |base_residual - sum(h_k * f_k)| < line_size

    When row 0's driver lies in L the localized motion slides the residual
    by multiples of ``lattice = |h_0|``, so its distance to the nearest
    lattice point must stay within a line instead (the fold of
    :func:`repro.linalg.siv.spatial_related`).
    """

    i: int
    j: int
    det_dims: tuple[int, ...]  # positions into the reduced dim tuple
    det_offset: tuple[int, ...]
    free_dims: tuple[int, ...]  # positions into the reduced dim tuple
    free_coeffs: tuple[int, ...]
    base_residual: int
    lattice: int  # |h_0| when row 0's driver lies in L, else 0

    def relates(self, d: tuple[int, ...], line_size: int | None) -> bool:
        """Is offset difference ``d`` (over the reduced dims) related?"""
        for pos, need in zip(self.det_dims, self.det_offset):
            if d[pos] != need:
                return False
        if line_size is None:
            return True
        if self.lattice:
            folded = self.base_residual % self.lattice
            return min(folded, self.lattice - folded) < line_size
        residual = self.base_residual
        for pos, coef in zip(self.free_dims, self.free_coeffs):
            residual -= coef * d[pos]
        return abs(residual) < line_size

def spatial_relations(ugs: UniformlyGeneratedSet, dims: tuple[int, ...],
                      localized: VectorSpace) -> list[SpatialRelation]:
    """Pairwise spatial-relation skeletons for an SIV-separable UGS.

    ``dims`` are the unrolled loop levels; the reduced coordinate system
    is ``used_dims(H, dims)`` (all dims the UGS touches -- including those
    feeding only the contiguous first array dimension, which temporal
    analysis may ignore but spatial analysis must keep: their copies land
    on nearby words).  Self relations (i == j) are included: copies of one
    reference share lines with each other.
    """
    matrix = ugs.matrix
    reduced = used_dims(matrix, dims, spatial=False)
    dim_pos = {dim: pos for pos, dim in enumerate(reduced)}
    consts = ugs.constants()
    depth = matrix.ncols
    rows = matrix.siv_rows()
    in_space = [entry is not None and localized.contains(
        tuple(int(k == entry[0]) for k in range(depth)))
        for entry in rows]

    relations: list[SpatialRelation] = []
    for i in range(len(consts)):
        for j in range(i, len(consts)):
            delta = [cj - ci for ci, cj in zip(consts[i], consts[j])]
            det: dict[int, int] = {}
            free_dims: list[int] = []
            free_coeffs: list[int] = []
            base_residual = delta[0]
            lattice = 0
            feasible = True
            for row_idx, (entry, in_l) in enumerate(zip(rows, in_space)):
                driver, coef = entry if entry is not None else (None, 0)
                if row_idx == 0:
                    if driver is None:
                        continue
                    if in_l:
                        lattice = abs(coef)
                    elif driver in dim_pos:
                        free_dims.append(dim_pos[driver])
                        free_coeffs.append(coef)
                    # a non-unrolled, non-localized driver: copies cannot
                    # move along it; the fixed delta stays in the residual
                    continue
                need = delta[row_idx]
                if driver is None:
                    if need != 0:
                        feasible = False
                        break
                    continue
                step, rem = divmod(need, coef)
                if rem:
                    feasible = False
                    break
                if in_l:
                    continue
                if driver in dim_pos:
                    det[dim_pos[driver]] = step
                    continue
                if need != 0:
                    feasible = False
                    break
            if not feasible:
                continue
            relations.append(SpatialRelation(
                i=i, j=j,
                det_dims=tuple(sorted(det)),
                det_offset=tuple(det[k] for k in sorted(det)),
                free_dims=tuple(free_dims),
                free_coeffs=tuple(free_coeffs),
                base_residual=base_residual,
                lattice=lattice,
            ))
    return relations

def group_count_spatial(ugs: UniformlyGeneratedSet, u: UnrollVector,
                        dims: tuple[int, ...], localized: VectorSpace,
                        line_size: int | None,
                        relations: list[SpatialRelation] | None = None) -> int:
    """Number of group-spatial sets among all copies at unroll u.

    Unlike the temporal count, spatial edges depend on the actual offset
    difference (a copy in the middle can bridge two references a full line
    apart), so edges are enumerated per offset pair via the relation
    skeletons.
    """
    matrix = ugs.matrix
    reduced = used_dims(matrix, dims, spatial=False)
    if relations is None:
        relations = spatial_relations(ugs, dims, localized)
    sizes, strides, box_size = _box_geometry(u, reduced)
    uf = UnionFind(ugs.size * box_size)
    spans = [range(-u[d], u[d] + 1) for d in reduced]
    diffs = list(product(*spans)) if reduced else [()]
    for rel in relations:
        for d in diffs:
            if rel.i == rel.j and not any(d):
                continue
            if not rel.relates(d, line_size):
                continue
            indices = _clipped_indices(d, sizes)
            if not indices:
                continue
            delta = sum(dt * st for dt, st in zip(d, strides))
            base_i = rel.i * box_size + delta
            base_j = rel.j * box_size
            for idx in indices:
                uf.union(base_i + idx, base_j + idx)
    return uf.component_count()

def conservative_group_count(ugs: UniformlyGeneratedSet, u: UnrollVector,
                             dims: tuple[int, ...],
                             spatial: bool = False) -> int:
    """Fallback for non-SIV sets: every copy is its own group."""
    reduced = used_dims(ugs.matrix, dims, spatial)
    copies = 1
    for d in reduced:
        copies *= u[d] + 1
    return ugs.size * copies

def reference_counts(group: UniformlyGeneratedSet, space: UnrollSpace,
                     localized: VectorSpace, line_size: int | None,
                     ) -> Callable[[UnrollVector], tuple[int, ...]]:
    """``u -> (GTS, GSS, memory ops, registers)`` of one set: union-find
    lattice counts for an SIV-separable set, one group per copy otherwise.
    The values :func:`repro.unroll.streams.keyed_counts` must give."""
    dims = space.dims
    if is_analyzable(group):
        inner = VectorSpace.spanned_by_axes([space.depth - 1], space.depth)
        merges_t = pairwise_merges(group, dims, localized, spatial=False)
        relations = spatial_relations(group, dims, localized)
        # register analysis localizes to the innermost loop (section 4.3)
        merges_r = pairwise_merges(group, dims, inner, spatial=False)

        def count(u):
            summary = stream_chains(group, u, dims, merges=merges_r)
            return (group_count(group, u, dims, localized, merges=merges_t),
                    group_count_spatial(group, u, dims, localized, line_size,
                                        relations=relations),
                    summary.memory_ops, summary.registers)
    else:
        def count(u):
            summary = conservative_chains(group, u, dims)
            return (conservative_group_count(group, u, dims),
                    conservative_group_count(group, u, dims, spatial=True),
                    summary.memory_ops, summary.registers)
    return count

def reference_columns(group: UniformlyGeneratedSet, space: UnrollSpace,
                      localized: VectorSpace, line_size: int | None,
                      ) -> tuple[list[int], ...]:
    """:func:`reference_counts` at every box point, as the four row-major
    columns :func:`repro.unroll.streams.keyed_counts` returns."""
    count = reference_counts(group, space, localized, line_size)
    return tuple(list(column) for column in zip(*(count(u) for u in space)))

def counted_tables(group: UniformlyGeneratedSet, space: UnrollSpace,
                   localized: VectorSpace, line_size: int) -> list[OffsetTable]:
    """The GTS, GSS, RRS and register tables of one set from
    :func:`reference_counts` at every box point."""
    return [OffsetTable(space.dims, space.bounds, column) for column
            in reference_columns(group, space, localized, line_size)]

# -- the Fraction search -----------------------------------------------------

def reference_search(ranking: BoxRanking) -> Iterator[tuple]:
    """``(objective, body copies, u)`` for every register-feasible vector
    of the ranking's box, the objective a Fraction from
    :func:`repro.balance.objective` at ``tables.point(u)``: the keys
    :meth:`BoxRanking.keys` must order the same way.

    The scan skips every vector that componentwise dominates an
    already-infeasible one.
    """
    tables, machine = ranking.tables, ranking.machine
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
        yield (objective(point, machine, ranking.include_cache,
                         ranking.miss_model), body_copies(u), u)

def _fraction_rank(matrix: Matrix) -> int:
    _, pivots = matrix._rref_fraction()
    return len(pivots)

@contextmanager
def rational_reference() -> Iterator[None]:
    """Run the block on the reference algorithms."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            siv, "closed_form", lambda matrix, localized: None))
        stack.enter_context(mock.patch.object(
            repro.unroll.tables, "keyed_counts", reference_columns))
        stack.enter_context(mock.patch.object(
            repro.unroll.optimize, "loop_locality_scores",
            pairwise_locality_scores))
        stack.enter_context(mock.patch.object(
            BoxRanking, "keys", reference_search))
        stack.enter_context(mock.patch.object(
            Matrix, "_rref", Matrix._rref_fraction))
        stack.enter_context(mock.patch.object(
            Matrix, "rank", _fraction_rank))
        yield
