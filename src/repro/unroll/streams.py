"""Exact reuse-group and register-stream counting on the copy lattice.

The paper's central trick is computing, for every unroll vector u, how many
group-temporal sets, group-spatial sets, register-reuse sets and registers
the *unrolled* loop will have -- without ever materializing unrolled code.
The copies of a UGS's members form a lattice ``members x box(u)``, and the
counts are connected components / chains of that lattice.

Two forms compute them.  :func:`keyed_counts` answers every point of the
box at once and is the only way the tables count a set: on an
SIV-separable set under an axis-spanned localized space each copy gets
integer class keys linear in its offset (:func:`copy_keys`), and one
slab-by-slab sweep over the box counts the classes, runs and chains (a
one-member set in closed form); outside the SIV class no copies merge, so
the counts are products of copy counts.  :func:`stream_chains` takes merge
relations from the merge-point solver and answers one point at a time;
the ``dims=()`` callers use it (scalar replacement, its code generator,
the prefetch planner and the brute-force baseline).  The union-find
lattice counters the keyed form is tested against live in
``tests/reference.py``.

Everything here is validated against the brute-force baseline that does
materialize the unrolled body (tests/test_tables_vs_bruteforce.py).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple

from repro.linalg import Matrix, VectorSpace, siv
from repro.linalg.matrix import int_fraction
from repro.reuse.ugs import UniformlyGeneratedSet
from repro.reuse.unionfind import UnionFind
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

def _row_major(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Strides of a row-major box: offset ``b`` linearizes to
    ``sum(b[t] * strides[t])``."""
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return tuple(strides)

def _box_geometry(u: UnrollVector,
                  reduced: tuple[int, ...]) -> tuple[tuple[int, ...],
                                                     tuple[int, ...], int]:
    """(sizes, row-major strides, total cells) of the copy box over
    ``reduced``."""
    sizes = tuple(u[d] + 1 for d in reduced)
    total = 1
    for size in sizes:
        total *= size
    return sizes, _row_major(sizes), total

def _clipped_indices(k: tuple[int, ...],
                     sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Linear indices of every offset ``b`` with both ``b`` and ``b + k``
    inside the box, in lexicographic (= increasing-index) order.

    The in-range cells form a sub-box computable directly from ``k``, and
    the shifted node is always ``index + dot(k, strides)``.
    """
    strides = _row_major(sizes)
    ranges = []
    for kt, size in zip(k, sizes):
        lo = max(0, -kt)
        hi = min(size - 1, size - 1 - kt)
        if lo > hi:
            return ()
        ranges.append(range(lo, hi + 1))
    return tuple(sum(c * s for c, s in zip(coords, strides))
                 for coords in product(*ranges))

def _union_merges(uf: UnionFind, merges: list["PairMerge"],
                  sizes: tuple[int, ...], strides: tuple[int, ...],
                  box_size: int) -> None:
    """Apply every pair merge across the whole box, in merge order and,
    within a merge, in increasing cell order."""
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
    uf = UnionFind(ugs.size * box_size)
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
# On an SIV-separable set with an axis-spanned L the union-find merge
# relations are all "equal key" relations: every row of H either pins the copy
# offset of one unrolled dim, or folds modulo the lattice of an axis of L,
# or is fixed.  So each copy gets an integer class key, linear in its offset
# (:func:`repro.linalg.siv.linear_keys`, shared with the locality scores),
# and the counts at every point of the box come from one sweep over the
# copies, with no union-find and no per-point re-sort.  The derivation and
# the proof that the classes are the union-find components are in
# docs/ALGORITHM.md.

def touch_insert(chain: list[int], touch: int, unit: int) -> tuple[int, int]:
    """Insert a copy's touch key into the sorted keys of its stream class,
    which holds at least one copy already.

    A touch key is ``time * unit + order * 2 + is_write``
    (:class:`CopyKeys`), so sorted keys are in touch order.  A class holds
    one chain per definition plus one when a read leads it, and needs
    ``chains + (span - gaps) / scale`` registers, where the gaps are the
    time steps just before each definition.  Returns the change in
    (leading reads, span - gaps): only the two neighbours of the new key
    enter it.
    """
    k = bisect_left(chain, touch)
    chain.insert(k, touch)
    write = touch & 1
    time = touch // unit
    if k == 0:
        above = chain[1]
        above_write = above & 1
        return above_write - write, (1 - above_write) * (above // unit - time)
    step = time - chain[k - 1] // unit
    if k == len(chain) - 1:
        return 0, (1 - write) * step
    return 0, ((chain[k + 1] & 1) - write) * step

#: ``(bases per member, strides per reduced used dim)``: copy ``i@b`` keys
#: on ``bases[i] + sum(strides[t] * b[t])``.
Family = tuple[list[int], list[int]]

class CopyKeys(NamedTuple):
    """The integer keys of an SIV set's copies over the box of one
    :class:`UnrollSpace` (:func:`copy_keys`)."""

    reduced: tuple[int, ...]  # the used unrolled dims
    sizes: tuple[int, ...]  # box sizes over ``reduced``
    temporal: Family  # GTS classes
    spatial: Family  # GSS classes (rows >= 1)
    words: Family  # contiguous word (row 0) within a GSS class
    stream: Family  # register stream classes (L = the innermost loop)
    touches: Family  # touch keys within a stream class
    unit: int  # touch key = time * unit + order * 2 + is_write
    scale: int  # touch times are in units of 1/scale
    modulus: int  # words are residues modulo this; 0 on a line
    defs: int  # members that write through (0 when hoisted)
    hoisted: bool  # innermost-invariant: one register per stream class

def copy_keys(ugs: UniformlyGeneratedSet, space: UnrollSpace,
              axes: tuple[int, ...]) -> CopyKeys:
    """Key every copy of an SIV-separable set under the localized axes.

    Two copies share a temporal, spatial or stream key exactly when the
    union-find relations of that family join them
    (:func:`repro.linalg.siv.linear_keys`; with a driven unrolled dim in
    L, merge_parts refuses every pair, so every copy is its own temporal
    class).  Touch keys order a stream class by touch time ``-c_t/h_t``
    in units of ``1/|h_t|`` (larger subscripts come earlier), then offset,
    then textual position; an innermost-invariant set reads every copy at
    time 0.
    """
    matrix = ugs.matrix
    rows = matrix.siv_rows()
    reduced = used_dims(matrix, space.dims)
    pos = {d: p for p, d in enumerate(reduced)}
    sizes, strides, total = _box_geometry(space.embed(space.bounds), reduced)
    inner = matrix.ncols - 1
    consts = ugs.constants()
    members = len(consts)

    time_row, refused = None, False
    for r, entry in enumerate(rows):
        if entry is not None and entry[0] == inner:
            time_row = r
        elif entry is not None and entry[0] in pos and entry[0] in axes:
            refused = True
    if refused:
        temporal = [i * total for i in range(members)], list(strides)
    else:
        temporal = siv.linear_keys(rows, axes, pos, sizes, consts)
    spatial = siv.linear_keys(rows, axes, pos, sizes, consts, first=1)
    modulus = siv.word_modulus(rows, axes)
    word_strides = [0] * len(sizes)
    word_col, word_coef = rows[0] or (None, 0)
    if not modulus and word_col in pos:
        word_strides[pos[word_col]] = word_coef
    words = [c[0] % modulus if modulus else c[0] for c in consts]
    stream = siv.linear_keys(rows, (inner,), pos, sizes, consts)

    hoisted = time_row is None
    times, scale, writes = [0] * members, 1, [0] * members
    if not hoisted:
        coef = rows[time_row][1]
        scale = abs(coef)
        times = [-c[time_row] if coef > 0 else c[time_row] for c in consts]
        writes = [int(member.is_write) for member in ugs.members]
    unit = 2 * members * total
    low = min(times)
    ranked = sorted(member.position for member in ugs.members)
    touches = ([(t - low) * unit + 2 * ranked.index(member.position) + w
                for t, member, w in zip(times, ugs.members, writes)],
               [2 * members * stride for stride in strides])
    return CopyKeys(reduced, sizes, temporal, spatial,
                    (words, word_strides), stream, touches, unit, scale,
                    modulus, sum(writes), hoisted)

def _cell_offsets(sizes: tuple[int, ...], strides) -> list[int]:
    """``sum(strides[t] * b[t])`` at every offset b of the box of
    ``sizes``, in row-major order."""
    offsets = [0]
    for size, stride in zip(sizes, strides):
        offsets = [o + stride * x for o in offsets for x in range(size)]
    return offsets

#: The four count columns of one set over the box of an unroll space,
#: row-major: GTS, GSS, memory ops (RRS) and registers.
CountColumns = tuple[list[int], list[int], list[int], list[int]]

def _copies_column(space: UnrollSpace, dims: tuple[int, ...]) -> list[int]:
    """The copies of one reference along ``dims``, ``prod(u[d] + 1)``, at
    every point ``u`` of the box of ``space``, row-major."""
    column = [1]
    for dim, bound in zip(space.dims, space.bounds):
        steps = range(1, bound + 2) if dim in dims else (1,) * (bound + 1)
        column = [c * k for c in column for k in steps]
    return column

def _one_member(ugs: UniformlyGeneratedSet, space: UnrollSpace,
                axes: tuple[int, ...], line_size: int | None,
                ) -> CountColumns:
    """The keyed counts of a one-member set, in closed form.

    Every used dim moves the row it drives, and the innermost loop is
    never unrolled, so no two copies share a temporal class (a driven
    unrolled dim in L refuses every merge) or a stream class: each copy is
    its own group and its own chain (a read leads it; a definition writes
    through).  Copies share a spatial class along the used dims that key
    no row >= 1: the dim that drives row 0 and the dims of L.  Within a
    class the words differ only along a row-0 driver outside L, by
    ``|h_0|`` per step, so a class is one run unless ``|h_0|`` is at least
    a line.
    """
    matrix = ugs.matrix
    rows = matrix.siv_rows()
    reduced = used_dims(matrix, space.dims)
    pinned = tuple(entry[0] for entry in rows[1:] if entry is not None
                   and entry[0] in reduced and entry[0] not in axes)
    word_col, word_coef = rows[0] or (None, 0)
    apart = (word_col in reduced and word_col not in axes
             and line_size is not None and abs(word_coef) >= line_size)
    hoisted = all(entry is None or entry[0] != matrix.ncols - 1
                  for entry in rows)
    write = ugs.members[0].is_write and not hoisted
    cells = _copies_column(space, reduced)
    g_s = _copies_column(space, pinned + (word_col,) if apart else pinned)
    chains = _copies_column(space, space.dims) if write else cells
    return cells, g_s, [0] * len(cells) if hoisted else chains, chains

def keyed_counts(ugs: UniformlyGeneratedSet, space: UnrollSpace,
                 localized: VectorSpace, line_size: int | None,
                 ) -> CountColumns:
    """The GTS, GSS, memory-op and register columns over the box of
    ``space`` (row-major, as :class:`repro.unroll.tables.OffsetTable`
    stores them): the union-find lattice counts (register L = the
    innermost loop) from keyed location classes.  ``localized`` must be
    spanned by axes (``ValueError`` otherwise).

    Outside the SIV class (§3.5) no copies merge: every copy is its own
    group over the dims H uses (its spatial H for GSS), and its own chain
    and register over every unrolled dim.

    The box over the used dims is swept one slab at a time: for each point
    p of all but the last dim, a fresh state takes the copies with offset
    ``b[:-1] <= p`` and ``b[-1] = step`` for step 0, 1, ...; every step's
    totals are the counts at ``(p, step)``.  A copy costs a few integer
    operations: a new word updates its class's runs, and a new touch its
    class's chains, from their two neighbours.
    """
    matrix = ugs.matrix
    axes = localized.axes()
    if axes is None:
        raise ValueError(f"localized space {localized} is not spanned by "
                         "axes")
    if matrix.siv_rows() is None:
        size, dims = ugs.size, space.dims
        every = [size * c for c in _copies_column(space, dims)]
        return ([size * c for c in _copies_column(
                    space, used_dims(matrix, dims))],
                [size * c for c in _copies_column(
                    space, used_dims(matrix, dims, spatial=True))],
                every, every)
    if ugs.size == 1:
        return _one_member(ugs, space, axes, line_size)
    keys = copy_keys(ugs, space, axes)
    unit, modulus, sizes = keys.unit, keys.modulus, keys.sizes
    strides = _row_major(sizes)
    families = (keys.temporal, keys.spatial, keys.words, keys.stream,
                keys.touches)
    # records[cell] = every member's five keys at that offset, row-major
    records = [list(zip(*[bases for bases, _ in families]))]
    for size, (a, b, c, d, e) in zip(sizes, zip(*[st for _, st in families])):
        records = [[(ka + a * x, kb + b * x, kc + c * x, kd + d * x,
                     ke + e * x) for ka, kb, kc, kd, ke in cell]
                   for cell in records for x in range(size)]

    *head_sizes, last = sizes or (1,)
    values: list[tuple[int, ...]] = [()] * len(records)
    for p in box_tuple(tuple(head_sizes)):
        at = sum(x * s for x, s in zip(p, strides))
        heads = _cell_offsets(tuple(x + 1 for x in p), strides)
        temporal_classes: set[int] = set()
        runs: dict[int, list[int]] = {}
        streams: dict[int, list[int]] = {}
        spatial_sets = leads = spans = 0
        for step in range(last):
            for h in heads:
                for g_t, g_s, word, s_key, touch in records[h + step]:
                    chain = streams.get(s_key)
                    if chain is None:
                        streams[s_key] = [touch]
                        leads += 1 - (touch & 1)
                    else:
                        lead, span = touch_insert(chain, touch, unit)
                        leads += lead
                        spans += span
                    temporal_classes.add(g_t)
                    ws = runs.get(g_s)
                    if ws is None:
                        runs[g_s] = [word]
                        spatial_sets += 1
                    elif line_size is not None:
                        k = bisect_left(ws, word)
                        n = len(ws)
                        if k < n and ws[k] == word:
                            continue
                        if modulus:
                            # on a circle the class's runs are recounted
                            change = -siv.word_runs(ws, line_size, modulus)
                            ws.insert(k, word)
                            spatial_sets += change + siv.word_runs(
                                ws, line_size, modulus)
                            continue
                        # on a line a new word joins each neighbour less
                        # than a line away, and the two neighbours were one
                        # run exactly when they were that close
                        change = 1
                        if k and word - ws[k - 1] < line_size:
                            change -= 1
                        if k < n:
                            if ws[k] - word < line_size:
                                change -= 1
                            if k and ws[k] - ws[k - 1] < line_size:
                                change += 1
                        ws.insert(k, word)
                        spatial_sets += change
            values[at + step] = (len(temporal_classes), spatial_sets,
                                 0 if keys.hoisted else leads,
                                 leads + spans // keys.scale)

    # every copy of a definition, textually identical ones along the
    # unused dims included, writes through and opens a chain
    stride_of = dict(zip(keys.reduced, strides))
    cells = _cell_offsets(tuple(b + 1 for b in space.bounds),
                          [stride_of.get(d, 0) for d in space.dims])
    writes = [keys.defs * c for c in _copies_column(space, space.dims)]
    g_t, g_s, mem, reg = zip(*values)
    return ([g_t[c] for c in cells], [g_s[c] for c in cells],
            [mem[c] + w for c, w in zip(cells, writes)],
            [reg[c] + w for c, w in zip(cells, writes)])

def is_analyzable(ugs: UniformlyGeneratedSet) -> bool:
    """True when H has at most one non-zero per row and column (§3.5);
    outside that class no copies merge (:func:`conservative_chains`)."""
    return ugs.matrix.siv_rows() is not None

def conservative_chains(ugs: UniformlyGeneratedSet, u: UnrollVector,
                        dims: tuple[int, ...]) -> StreamSummary:
    """Fallback for non-SIV sets: one single-node chain per copy (every
    copy, including textually identical ones, issues its own access)."""
    chains = []
    for idx in range(ugs.size):
        for b in _offsets(u, dims):
            chains.append(Chain(((idx, b),), Fraction(0)))
    return StreamSummary(tuple(chains))
