"""Exact reuse-group and register-stream counting on the copy lattice.

The paper's central trick is computing, for every unroll vector u, how many
group-temporal sets, group-spatial sets, register-reuse sets and registers
the *unrolled* loop will have -- without ever materializing unrolled code.
The copies of a UGS's members form a lattice ``members x box(u)``, and the
counts are connected components / chains of that lattice.

Two forms compute them.  :func:`keyed_counts` answers every point of the
box at once for SIV-separable sets under an axis-spanned localized space
(the tables' production path): each copy gets a class key row by row, and
one slab-by-slab sweep over the box counts the classes, runs and chains.
The union-find counters (:func:`group_count`, :func:`group_count_spatial`,
:func:`stream_chains`) take merge relations from the merge-point solver
and answer one point at a time.  They are the oracle the keyed form is
tested against, the seed construction, the path for every other set, and
what the ``dims=()`` callers use (scalar replacement, its code generator,
the prefetch planner and the brute-force baseline).

Everything here is validated against the brute-force baseline that does
materialize the unrolled body (tests/test_tables_vs_bruteforce.py).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator

from repro.linalg import Matrix, VectorSpace, siv
from repro.linalg.matrix import SivRows, int_fraction
from repro.reuse.ugs import UniformlyGeneratedSet
from repro.unroll.merge import MergeSolution, solve_merge
from repro.unroll.space import UnrollSpace, UnrollVector, box_tuple

def used_dims(matrix: Matrix, dims: tuple[int, ...],
              spatial: bool = False) -> tuple[int, ...]:
    """The unrolled dimensions the UGS actually depends on.

    Copies along a dimension whose H column is zero are textually identical
    references: they never create new groups, so the lattice only extends
    along used dimensions.
    """
    work = matrix.with_zero_row(0) if spatial else matrix
    return tuple(d for d in dims if any(x != 0 for x in work.column(d)))

def _offsets(u: UnrollVector, dims: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    yield from box_tuple(tuple(u[d] + 1 for d in dims))

class _UnionFind:
    """Union-find over dense integer nodes ``0..n-1`` (flat list parents).

    Lattice nodes are linearized as ``member * box_size + offset_index``
    (row-major offsets), replacing the former dict-of-tuples forest.  The
    union sequence and hence the root structure are unchanged, so
    component counts *and* the discovery order of :meth:`components` are
    identical to the seed implementation.
    """

    __slots__ = ("parent",)

    def __init__(self, count: int):
        self.parent = list(range(count))

    def find(self, node: int) -> int:
        parent = self.parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def component_count(self) -> int:
        return sum(1 for node, up in enumerate(self.parent) if node == up)

    def components(self) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for node in range(len(self.parent)):
            groups.setdefault(self.find(node), []).append(node)
        return groups

def _box_geometry(u: UnrollVector,
                  reduced: tuple[int, ...]) -> tuple[tuple[int, ...],
                                                     tuple[int, ...], int]:
    """(sizes, row-major strides, total cells) of the copy box over
    ``reduced``; offset ``b`` linearizes to ``sum(b[t] * strides[t])``."""
    sizes = tuple(u[d] + 1 for d in reduced)
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    total = 1
    for size in sizes:
        total *= size
    return sizes, tuple(strides), total

@lru_cache(maxsize=16384)
def _clipped_indices(k: tuple[int, ...],
                     sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Linear indices of every offset ``b`` with both ``b`` and ``b + k``
    inside the box, in lexicographic (= increasing-index) order.

    The seed code tested ``b + k in box_set`` per cell; the in-range cells
    form a sub-box computable directly from ``k``, and the shifted node is
    always ``index + dot(k, strides)``.
    """
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    ranges = []
    for kt, size in zip(k, sizes):
        lo = max(0, -kt)
        hi = min(size - 1, size - 1 - kt)
        if lo > hi:
            return ()
        ranges.append(range(lo, hi + 1))
    return tuple(sum(c * s for c, s in zip(coords, strides))
                 for coords in product(*ranges))

def _union_merges(uf: _UnionFind, merges: list["PairMerge"],
                  sizes: tuple[int, ...], strides: tuple[int, ...],
                  box_size: int) -> None:
    """Apply every pair merge across the whole box (same union sequence as
    the seed's per-cell membership test)."""
    for pm in merges:
        k = pm.solution.offset
        indices = _clipped_indices(k, sizes)
        if not indices:
            continue
        delta = sum(kt * st for kt, st in zip(k, strides))
        base_i = pm.i * box_size + delta
        base_j = pm.j * box_size
        for idx in indices:
            uf.union(base_i + idx, base_j + idx)

@dataclass(frozen=True)
class PairMerge:
    """Precomputed merge data between members i < j of one UGS."""

    i: int
    j: int
    solution: MergeSolution  # offset in *used-dims reduced* coordinates

def pairwise_merges(ugs: UniformlyGeneratedSet, dims: tuple[int, ...],
                    localized: VectorSpace, spatial: bool = False,
                    line_size: int | None = None) -> list[PairMerge]:
    """Merge solutions for every member pair, in reduced used-dim coords."""
    reduced = used_dims(ugs.matrix, dims, spatial)
    consts = ugs.constants()
    merges = []
    for i in range(len(consts)):
        for j in range(i + 1, len(consts)):
            delta = tuple(cj - ci for ci, cj in zip(consts[i], consts[j]))
            sol = solve_merge(ugs.matrix, delta, reduced, localized,
                              spatial=spatial, line_size=line_size)
            if sol is not None:
                merges.append(PairMerge(i, j, sol))
    return merges

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
    uf = _UnionFind(ugs.size * box_size)
    _union_merges(uf, merges, sizes, strides, box_size)
    return uf.component_count()

@dataclass(frozen=True)
class SpatialRelation:
    """How copies of members i and j of a UGS share cache lines.

    Copies ``i @ a`` and ``j @ b`` are group-spatial related when
    ``a - b`` equals ``det_offset`` on the determined dimensions and the
    first-dimension residual, after the free (contiguous-dimension)
    offsets move it, stays within a line:

        free_motion  or  |base_residual - sum(h_k * f_k)| < line_size
    """

    i: int
    j: int
    det_dims: tuple[int, ...]  # positions into the reduced dim tuple
    det_offset: tuple[int, ...]
    free_dims: tuple[int, ...]  # positions into the reduced dim tuple
    free_coeffs: tuple[int, ...]
    base_residual: int
    free_motion: bool

    def relates(self, d: tuple[int, ...], line_size: int | None) -> bool:
        """Is offset difference ``d`` (over the reduced dims) related?"""
        for pos, need in zip(self.det_dims, self.det_offset):
            if d[pos] != need:
                return False
        if self.free_motion or line_size is None:
            return True
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
            free_motion = False
            feasible = True
            for row_idx, (entry, in_l) in enumerate(zip(rows, in_space)):
                driver, coef = entry if entry is not None else (None, 0)
                if row_idx == 0:
                    if driver is None:
                        continue
                    if in_l:
                        free_motion = True
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
                free_motion=free_motion,
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
    uf = _UnionFind(ugs.size * box_size)
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

@dataclass(frozen=True)
class Chain:
    """One register-reuse chain: consecutive touches of a location stream
    between definitions.

    ``hoisted`` marks innermost-invariant chains: the whole stream touches
    one location for the entire innermost loop, so the load is hoisted
    above it (and any store sunk below it) -- the paper's "A(J) can be held
    in a register".  A hoisted chain costs no per-iteration memory
    operation and exactly one register.
    """

    nodes: tuple[tuple[int, tuple[int, ...]], ...]  # (member index, offset)
    span: Fraction  # innermost-iteration distance head..tail
    hoisted: bool = False
    #: per-node touch times relative to the chain head (0 for the head);
    #: the scalar-replacement code generator reads its rotation depth here.
    times: tuple[Fraction, ...] = ()

    @property
    def registers(self) -> int:
        if self.hoisted:
            return 1
        return int(self.span) + 1

    @property
    def memory_ops(self) -> int:
        return 0 if self.hoisted else 1

@dataclass(frozen=True)
class StreamSummary:
    """Register-level accounting of one UGS at one unroll vector."""

    chains: tuple[Chain, ...]

    @property
    def memory_ops(self) -> int:
        """One op per moving chain: the generator load, or the store of a
        def-led chain (scalar replacement removes every other access);
        hoisted (innermost-invariant) chains cost nothing per iteration."""
        return sum(chain.memory_ops for chain in self.chains)

    @property
    def registers(self) -> int:
        return sum(chain.registers for chain in self.chains)

def _inner_time_row(matrix: Matrix) -> tuple[int, Fraction] | None:
    """The (row, coefficient) through which the innermost loop subscripts
    the array, or None when the UGS is innermost-invariant."""
    inner_col = matrix.ncols - 1
    for row_idx in range(matrix.nrows):
        coef = matrix.entry(row_idx, inner_col)
        if coef != 0:
            return row_idx, coef
    return None

def stream_chains(ugs: UniformlyGeneratedSet, u: UnrollVector,
                  dims: tuple[int, ...],
                  merges: list[PairMerge] | None = None) -> StreamSummary:
    """Register-reuse chains of a UGS's copies at unroll u.

    Streams (copies touching the same location modulo innermost motion) are
    components of the temporal merge relation with L = innermost span.
    Within each stream, copies are ordered by innermost touch time (ties by
    textual position); a definition starts a new chain, a use joins the
    current one.  Registers per chain = innermost span + 1
    (Callahan-Carr-Kennedy).
    """
    depth = ugs.matrix.ncols
    inner_space = VectorSpace.spanned_by_axes([depth - 1], depth)
    reduced = used_dims(ugs.matrix, dims, spatial=False)
    if merges is None:
        merges = pairwise_merges(ugs, dims, inner_space, spatial=False)

    sizes, strides, box_size = _box_geometry(u, reduced)
    box = box_tuple(sizes)
    uf = _UnionFind(ugs.size * box_size)
    _union_merges(uf, merges, sizes, strides, box_size)

    time_row = _inner_time_row(ugs.matrix)
    consts = ugs.constants()
    if time_row is not None:
        # Larger subscript value in the innermost-governed row means the
        # location is reached at an *earlier* innermost iteration.  The
        # entries and constants are integral in practice, so the time is a
        # single normalizing Fraction construction (value-identical to the
        # chained Fraction arithmetic it replaces); per-node times are
        # cached and shared between the sort key and the chain spans.
        row, coef = time_row
        row_entries = [ugs.matrix.entry(row, dim) for dim in reduced]
        if coef.denominator == 1 and all(e.denominator == 1
                                         for e in row_entries):
            coef = coef.numerator
            row_entries = [e.numerator for e in row_entries]
        time_cache: dict[tuple[int, tuple[int, ...]], Fraction] = {}

        def touch_time(member: int, offset: tuple[int, ...]) -> Fraction:
            key = (member, offset)
            got = time_cache.get(key)
            if got is None:
                shift = sum(e * o for e, o in zip(row_entries, offset))
                got = Fraction(-(consts[member][row] + shift), coef)
                time_cache[key] = got
            return got
    else:
        def touch_time(member: int, offset: tuple[int, ...]) -> Fraction:
            return Fraction(0)

    # Copies along dimensions the UGS does not subscript are textually
    # identical references: reads collapse (one load feeds them all), but
    # every *store* copy still writes through -- scalar replacement never
    # removes definitions (section 4.3).  Expand each lattice node over the
    # unused-dimension offsets before chaining so defs split correctly.
    unused = tuple(d for d in dims if d not in reduced)
    extra_box = list(_offsets(u, unused))
    reduced_pos = {d: i for i, d in enumerate(reduced)}
    unused_pos = {d: i for i, d in enumerate(unused)}

    def full_offset(b: tuple[int, ...], e: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(b[reduced_pos[d]] if d in reduced_pos else e[unused_pos[d]]
                     for d in dims)

    chains: list[Chain] = []
    if time_row is None:
        # Innermost-invariant UGS: each stream is a single location for the
        # whole innermost loop; its value lives in one register (load
        # hoisted, store sunk) regardless of how many members/copies touch
        # it.
        for node_ids in uf.components().values():
            nodes = [divmod(node, box_size) for node in node_ids]
            nodes = [(member, box[idx]) for member, idx in nodes]
            chains.append(Chain(tuple(nodes), Fraction(0), hoisted=True,
                                times=tuple(Fraction(0) for _ in nodes)))
        return StreamSummary(tuple(chains))

    for node_ids in uf.components().values():
        nodes = [divmod(node, box_size) for node in node_ids]
        nodes = [(member, box[idx]) for member, idx in nodes]
        # Ties in touch time resolve by the textual order of the unrolled
        # code: copies are emitted in lexicographic offset order (loop
        # order, outermost first), then original statement order.
        expanded = [(member, b, e) for member, b in nodes for e in extra_box]
        ordered = sorted(
            expanded,
            key=lambda node: (touch_time(node[0], node[1]),
                              full_offset(node[1], node[2]),
                              ugs.members[node[0]].position))
        current: list[tuple[int, tuple[int, ...]]] = []
        for member_idx, b, _ in ordered:
            if ugs.members[member_idx].is_write and current:
                chains.append(_close_chain(current, touch_time))
                current = [(member_idx, b)]
            else:
                current.append((member_idx, b))
        if current:
            chains.append(_close_chain(current, touch_time))
    return StreamSummary(tuple(chains))

def _close_chain(nodes: list[tuple[int, tuple[int, ...]]],
                 touch_time) -> Chain:
    times = [touch_time(m, b) for m, b in nodes]
    if all(t.denominator == 1 for t in times):
        # Integral touch times (the overwhelmingly common case): subtract
        # as ints and intern the results -- value-identical to the Fraction
        # subtractions below.
        nums = [t.numerator for t in times]
        base = min(nums)
        return Chain(tuple(nodes), int_fraction(max(nums) - base),
                     times=tuple(int_fraction(n - base) for n in nums))
    base = min(times)
    span = max(times) - base
    return Chain(tuple(nodes), span,
                 times=tuple(t - base for t in times))

# -- keyed location classes ---------------------------------------------------
#
# On an SIV-separable set with an axis-spanned L the union-find relations
# above are all "equal key" relations: every row of H either pins the copy
# offset of one unrolled dim, or folds modulo the lattice of an axis of L,
# or is fixed.  So each copy gets a class key row by row and the counts at
# every point of the box come from one sweep over the copies, with no
# union-find and no per-point re-sort.  The derivation and the proof that
# the classes are the union-find components are in docs/ALGORITHM.md.

KeyRules = tuple[tuple[int | None, int], ...]

def _key_rules(rows: SivRows, axes: tuple[int, ...],
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

def _class_key(rules: KeyRules, const: tuple[int, ...],
               b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c + h * b[p] if p is not None else c % h if h else c
                 for (p, h), c in zip(rules, const))

def _join_word(words: list[int], word: int, line: int) -> int:
    """Insert ``word`` into one class's sorted distinct ``words``; returns
    the change in the number of runs (gaps of at least ``line`` split
    runs).  A new word joins each neighbour less than a line away, and
    the two neighbours were one run exactly when they were that close."""
    k = bisect_left(words, word)
    if k < len(words) and words[k] == word:
        return 0
    below = words[k - 1] if k else None
    above = words[k] if k < len(words) else None
    words.insert(k, word)
    change = 1
    if below is not None and word - below < line:
        change -= 1
    if above is not None and above - word < line:
        change -= 1
    if below is not None and above is not None and above - below < line:
        change += 1
    return change

def _chain_stats(stream: list[tuple], scale: int) -> tuple[int, int, int]:
    """(memory ops, registers, writes) of one stream class whose copies are
    in touch order, less ``writes`` per copy along the unused dims.

    A definition opens a chain unless it leads the stream, and a chain needs
    its time span plus one register; a definition that leads its touch
    time cuts the span between it and the previous time out of the total.
    Touch times are in units of ``1/scale`` and congruent modulo ``scale``
    within a class.
    """
    lead = 0 if stream[0][4] else 1
    writes = gaps = 0
    prev = stream[0][0]
    for time, _, _, _, is_write in stream:
        if is_write:
            writes += 1
            gaps += time - prev
        prev = time
    span = stream[-1][0] - stream[0][0]
    return lead, lead + (span - gaps) // scale, writes

def keyed_counts(ugs: UniformlyGeneratedSet, space: UnrollSpace,
                 localized: VectorSpace, line_size: int | None,
                 ) -> Callable[[UnrollVector], tuple[int, ...]] | None:
    """``u -> (GTS, GSS, memory ops, registers)`` over the box of ``space``
    from keyed location classes: the values of :func:`group_count`,
    :func:`group_count_spatial` and :func:`stream_chains` (register L = the
    innermost loop), or None when the closed form does not cover the set
    (non-SIV H, L not spanned by axes, seed mode).

    The box over the used dims is swept one slab at a time: for each point
    p of all but the last dim, a fresh state takes the copies with offset
    ``b[:-1] <= p`` and ``b[-1] = step`` for step 0, 1, ...; every step's
    totals are the counts at ``(p, step)``.
    """
    matrix = ugs.matrix
    form = siv.closed_form(matrix, localized)
    if form is None:
        return None
    rows, axes = form
    reduced = used_dims(matrix, space.dims)
    unused = tuple(d for d in space.dims if d not in reduced)
    pos = {d: p for p, d in enumerate(reduced)}
    sizes, strides, _ = _box_geometry(space.embed(space.bounds), reduced)
    inner = matrix.ncols - 1

    # GTS: a driven unrolled dim inside L makes merge_parts refuse every
    # pair, so every copy is its own class.
    refused = any(entry is not None and entry[0] in pos and entry[0] in axes
                  for entry in rows)
    temporal = _key_rules(rows, axes, pos)
    # GSS: rows >= 1 key the class; row 0 gives the contiguous-word value,
    # free to move (one run per class) when its driver lies in L.
    spatial = _key_rules(rows[1:], axes, pos)
    word_col, word_coef = rows[0] or (None, 0)
    line = None if word_col in axes else line_size
    word_pos = pos.get(word_col)
    stream = _key_rules(rows, (inner,), pos)
    time_row = next((r for r, entry in enumerate(rows)
                     if entry is not None and entry[0] == inner), None)
    scale = abs(rows[time_row][1]) if time_row is not None else 1
    # touch time -c/h in units of 1/|h|: larger subscripts come earlier
    sign = -1 if time_row is not None and rows[time_row][1] > 0 else 1

    consts = ugs.constants()
    records = []
    for b in box_tuple(sizes):
        copies = []
        for i, (c, member) in enumerate(zip(consts, ugs.members)):
            word = c[0]
            if word_pos is not None:
                word += word_coef * b[word_pos]
            touch = None
            if time_row is not None:
                touch = (sign * c[time_row], b, member.position, i,
                         member.is_write)
            copies.append(((i, b) if refused else _class_key(temporal, c, b),
                           _class_key(spatial, c[1:], b), word,
                           _class_key(stream, c, b), touch))
        records.append(copies)

    *head_sizes, last = sizes or (1,)
    values: list[tuple[int, ...]] = [()] * len(records)
    for p in box_tuple(tuple(head_sizes)):
        at = sum(x * s for x, s in zip(p, strides))
        heads = [sum(x * s for x, s in zip(q, strides))
                 for q in box_tuple(tuple(x + 1 for x in p))]
        temporal_classes: set = set()
        runs: dict[tuple, list[int]] = {}
        streams: dict[tuple, list[tuple]] = {}
        spatial_sets = memory = registers = writes = 0
        for step in range(last):
            for h in heads:
                for g_t, g_s, word, s_key, touch in records[h + step]:
                    temporal_classes.add(g_t)
                    words = runs.get(g_s)
                    if words is None:
                        runs[g_s] = [word]
                        spatial_sets += 1
                    elif line is not None:
                        spatial_sets += _join_word(words, word, line)
                    chain = streams.get(s_key)
                    if touch is None:
                        # innermost-invariant: one hoisted register per class
                        if chain is None:
                            streams[s_key] = []
                            registers += 1
                        continue
                    if chain is None:
                        chain = streams[s_key] = []
                    else:
                        mem, reg, wr = _chain_stats(chain, scale)
                        memory -= mem
                        registers -= reg
                        writes -= wr
                    insort(chain, touch)
                    mem, reg, wr = _chain_stats(chain, scale)
                    memory += mem
                    registers += reg
                    writes += wr
            values[at + step] = (len(temporal_classes), spatial_sets,
                                 memory, registers, writes)

    def count(u: UnrollVector) -> tuple[int, ...]:
        g_t, g_s, mem, reg, wr = values[
            sum(u[d] * s for d, s in zip(reduced, strides))]
        copies = 1
        for d in unused:
            copies *= u[d] + 1
        return g_t, g_s, mem + copies * wr, reg + copies * wr

    return count

def is_analyzable(ugs: UniformlyGeneratedSet) -> bool:
    """True when H has at most one non-zero per row and column (§3.5);
    outside that class the counts fall back to no-merging conservatism."""
    return ugs.matrix.siv_rows() is not None

def conservative_group_count(ugs: UniformlyGeneratedSet, u: UnrollVector,
                             dims: tuple[int, ...],
                             spatial: bool = False) -> int:
    """Fallback for non-SIV sets: every copy is its own group."""
    reduced = used_dims(ugs.matrix, dims, spatial)
    copies = 1
    for d in reduced:
        copies *= u[d] + 1
    return ugs.size * copies

def conservative_chains(ugs: UniformlyGeneratedSet, u: UnrollVector,
                        dims: tuple[int, ...]) -> StreamSummary:
    """Fallback for non-SIV sets: one single-node chain per copy (every
    copy, including textually identical ones, issues its own access)."""
    chains = []
    for idx in range(ugs.size):
        for b in _offsets(u, dims):
            chains.append(Chain(((idx, b),), Fraction(0)))
    return StreamSummary(tuple(chains))
