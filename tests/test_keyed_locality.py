"""Integer locality scores and the integer search aggregate.

The keyed location classes of :func:`repro.linalg.siv.group_counts` must
give the same g_T and g_S as the pairwise partitions of
:mod:`repro.reuse.group`, and the integer scores of
:func:`repro.reuse.locality.loop_locality_scores` the same values as the
Fraction scores of :func:`pairwise_locality_scores`.  The whole-nest int
columns of :class:`repro.unroll.tables.UnrollTables` must answer every box
point exactly as a per-set Fraction accumulation of the count tables does.  A strided
contiguous subscript (``A(8*I)`` next to ``A(8*I+4)``) pins the circular
run rule against the brute-force measurement.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from repro.baselines.brute_force import measure_unrolled
from repro.corpus import CorpusConfig, iter_corpus
from repro.ir.builder import NestBuilder
from repro.linalg import VectorSpace, siv
from repro.reuse.group import group_spatial_partition, group_temporal_partition
from repro.reuse.locality import (
    innermost_localized_space,
    loop_locality_scores,
    pairwise_locality_scores,
    pairwise_memory_cost,
    ugs_memory_cost,
)
from repro.reuse.ugs import partition_ugs
from repro.unroll.space import UnrollSpace, body_copies
from repro.unroll.tables import (
    OffsetTable,
    UgsTables,
    UnrollPoint,
    UnrollTables,
    build_tables,
)
from tests.reference import counted_tables

LINES = (None, 1, 2, 4, 8, 16)
TRIP = 100

def _nest(name, loops, refs):
    """One statement per reference: ``ref = ref + 1.0`` for the first,
    reads of the rest stored into a temporary array T (its own UGS)."""
    b = NestBuilder(name)
    idx = dict(zip(loops, b.loops(*((n, 1, "N") for n in loops))))
    built = [b.ref(array, *(sub(idx) for sub in subs)) for array, subs in refs]
    b.assign(built[0], built[0] + 1.0)
    for k, ref in enumerate(built[1:]):
        b.assign(b.ref("T", idx[loops[-1]] + k), ref * 2.0)
    return b.build()

def _shapes():
    """Hand-built sets the corpus rarely or never produces."""
    def lin(var, coef=1, const=0):
        return lambda ix: ix[var] * coef + const

    I, J, K = lin("I"), lin("J"), lin("K")

    def fixed(value):
        return lambda ix: value

    return [
        # |h_0| = 8 and 16, driver innermost: residues straddle a line and
        # wrap around (0 next to |h_0| - 1)
        _nest("stride8", ("J", "I"),
              [("A", (lin("I", 8), J)), ("A", (lin("I", 8, 4), J)),
               ("A", (lin("I", 8, 3), J)), ("A", (lin("I", 8, 7), J)),
               ("A", (lin("I", 8, 12), J))]),
        _nest("stride16", ("J", "I"),
              [("A", (lin("I", 16), J)), ("A", (lin("I", 16, 8), J)),
               ("A", (lin("I", 16, 15), J)), ("A", (lin("I", 16, 5), J)),
               ("A", (lin("I", 16, 11), lin("J", 1, 1)))]),
        # coefficients -1 and 2
        _nest("negative", ("I", "J"),
              [("A", (lin("I", -1), J)), ("A", (lin("I", -1, 2), J)),
               ("A", (lin("I", -1, 5), lin("J", 1, 1)))]),
        _nest("double", ("I", "J"),
              [("A", (lin("J", 2), I)), ("A", (lin("J", 2, 1), I)),
               ("A", (lin("J", 2, 3), lin("I", 1, 1))),
               ("A", (lin("J", 2, 9), I))]),
        # zero rows: constant subscripts
        _nest("zero_rows", ("I", "J"),
              [("A", (fixed(3), J)), ("A", (fixed(5), J)),
               ("A", (fixed(3), lin("J", 1, 1))), ("B", (I, fixed(2))),
               ("B", (lin("I", 1, 1), fixed(4))),
               ("B", (lin("I", 1, 6), fixed(2)))]),
        # depth 3, strided contiguous row driven by a middle loop
        _nest("deep", ("I", "J", "K"),
              [("A", (lin("J", 8), K, I)), ("A", (lin("J", 8, 5), K, I)),
               ("A", (lin("J", 8, 2), lin("K", 2, 1), I)),
               ("A", (lin("J", 8, 7), K, lin("I", 1, -1))),
               ("C", (K, lin("I", 4, 2))), ("C", (lin("K", 1, 3), lin("I", 4)))]),
    ]

def _axis_spaces(depth):
    for size in range(1, depth + 1):
        yield from combinations(range(depth), size)

@pytest.mark.parametrize("nest", _shapes(), ids=lambda n: n.name)
def test_keyed_counts_match_pairwise_partitions(nest):
    for group in partition_ugs(nest):
        rows = group.matrix.siv_rows()
        assert rows is not None
        for axes in _axis_spaces(nest.depth):
            localized = VectorSpace.spanned_by_axes(list(axes), nest.depth)
            for line in LINES:
                want = (len(group_temporal_partition(group, localized)),
                        len(group_spatial_partition(group, localized, line)))
                got = siv.group_counts(rows, axes, group.constants(), line)
                assert got == want, (group.pretty(), axes, line)
                if line is not None:
                    assert (ugs_memory_cost(group, localized, line, TRIP)
                            == pairwise_memory_cost(group, localized, line,
                                                    TRIP))

@pytest.mark.parametrize("nest", _shapes(), ids=lambda n: n.name)
def test_keyed_scores_match_pairwise_scores(nest):
    for line in LINES[1:]:
        assert (loop_locality_scores(nest, line, TRIP)
                == pairwise_locality_scores(nest, line, TRIP))

def test_circular_runs_on_strided_word():
    """Words 0, 4, 3, 7, 12 are residues {0, 3, 4, 7} mod 8, with circular
    gaps 3, 1, 3 and 1 (7 back round to 0).  Every gap is below a line of
    4, so the set is one GSS; a line of 2 splits it at the two gaps of 3
    into {7, 0} and {3, 4}; a line of 1 splits every gap."""
    nest = _shapes()[0]
    group = next(g for g in partition_ugs(nest) if g.array == "A")
    rows, consts = group.matrix.siv_rows(), group.constants()
    inner = (nest.depth - 1,)
    assert siv.group_counts(rows, inner, consts, 4) == (4, 1)
    assert siv.group_counts(rows, inner, consts, 2) == (4, 2)
    assert siv.group_counts(rows, inner, consts, 1) == (4, 4)
    assert siv.group_counts(rows, inner, consts, None) == (4, 1)
    assert siv.word_runs([0, 4], 4, 8) == 2
    assert siv.word_runs([0, 7], 4, 8) == 1
    assert siv.word_runs([0, 7], 4) == 2
    assert siv.word_runs([5], 4, 8) == 1

def test_corpus_slice_scores_match_pairwise():
    checked = 0
    for nest in iter_corpus(CorpusConfig(seed=4099), count=200):
        sets = partition_ugs(nest)
        for line in (1, 2, 4, 8, 16):
            assert (loop_locality_scores(nest, line, TRIP, ugs=sets)
                    == pairwise_locality_scores(nest, line, TRIP, ugs=sets)), \
                (nest.name, line)
            checked += 1
    assert checked == 1000

def _strided(step, offset):
    b = NestBuilder(f"strided{step}")
    J, I = b.loops(("J", 1, "N"), ("I", 1, "N"))
    b.assign(b.ref("A", I * step, J), b.ref("A", I * step + offset, J) + 1.0)
    return b.build()

@pytest.mark.parametrize("step,offset", [(8, 4), (16, 8), (8, 7)])
@pytest.mark.parametrize("bound", [4, 8])
def test_strided_contiguous_tables_match_brute_force(step, offset, bound):
    nest = _strided(step, offset)
    space = UnrollSpace(nest.depth, (0,), (bound,))
    tables = build_tables(nest, space, line_size=4, trip=TRIP)
    localized = innermost_localized_space(nest)
    for entry in tables.per_ugs:
        expected = counted_tables(entry.ugs, space, localized, 4)
        got = (entry.gts, entry.gss, entry.rrs, entry.registers)
        assert [t.counts for t in got] == [t.counts for t in expected]
    for u in space:
        measured = measure_unrolled(nest, u, line_size=4, trip=TRIP)
        point = tables.point(u)
        assert (point.gts, point.gss, point.memory_ops, point.registers,
                point.cache_cost) == \
            (measured.gts, measured.gss, measured.memory_ops,
             measured.registers, measured.cache_cost), u

def test_strided_repro_values():
    """``A(8*I,J) = A(8*I+4,J)`` at line 4: the two words sit half a
    period apart, a full line either way round, so no copy shares a line
    with another: GSS 2(n+1) and cache cost (n+1)/2."""
    nest = _strided(8, 4)
    space = UnrollSpace(nest.depth, (0,), (4,))
    tables = build_tables(nest, space, line_size=4, trip=TRIP)
    for n, (gss, cost) in {0: (2, Fraction(1, 2)), 1: (4, Fraction(1)),
                           3: (8, Fraction(2))}.items():
        point = tables.point((n, 0))
        assert (point.gss, point.cache_cost) == (gss, cost)

def _per_set_points(tables):
    """Every box point by accumulating each set's counts in Fractions:
    the reference the whole-nest int columns must equal."""
    line = Fraction(tables.line_size)
    points = []
    for u in tables.space:
        reduced = tables.space.project(u)
        memory_ops = registers = gts = gss = cost = Fraction(0)
        for entry in tables.per_ugs:
            g_t = Fraction(entry.gts.box_sum(reduced))
            g_s = Fraction(entry.gss.box_sum(reduced))
            memory_ops += entry.rrs.box_sum(reduced)
            registers += entry.registers.box_sum(reduced)
            gts += g_t
            gss += g_s
            cost += entry.base_cost * (g_s + (g_t - g_s) / line)
        flops = Fraction(tables.nest.flops_per_iteration() * body_copies(u))
        points.append(UnrollPoint(u, flops, memory_ops, registers, gts, gss,
                                  cost))
    return points

def _assert_aggregate_matches(tables):
    assert [tables.point(u) for u in tables.space] == _per_set_points(tables)

def test_aggregate_matches_per_set_accumulation_on_corpus():
    for nest in iter_corpus(CorpusConfig(seed=7), count=60):
        dims = tuple(range(min(2, nest.depth - 1)))
        space = UnrollSpace(nest.depth, dims, tuple(3 for _ in dims))
        for line in (2, 4):
            _assert_aggregate_matches(
                build_tables(nest, space, line_size=line, trip=TRIP))

def test_aggregate_without_array_references():
    b = NestBuilder("scalars")
    I, J = b.loops(("I", 1, "N"), ("J", 1, "N"))
    b.assign(b.scalar("S"), b.scalar("S") * 2.0 + 1.0)
    nest = b.build()
    tables = build_tables(nest, UnrollSpace(2, (0,), (4,)), trip=TRIP)
    assert tables.per_ugs == []
    _assert_aggregate_matches(tables)
    assert tables.point((3, 0)).cache_cost == 0

def test_aggregate_mixes_equation_one_bases():
    """Self-temporal A(J), self-spatial B(I, J) and no-self-reuse C(J, I)
    under the innermost I: three distinct bases, one common denominator."""
    b = NestBuilder("mixed")
    J, K, I = b.loops(("J", 1, "N"), ("K", 1, "N"), ("I", 1, "N"))
    b.assign(b.ref("A", J), b.ref("A", J) + b.ref("B", I, J)
             + b.ref("C", J, I) + b.ref("C", J + 1, I) + b.ref("B", I + 5, K))
    nest = b.build()
    tables = build_tables(nest, UnrollSpace(3, (0, 1), (3, 2)), trip=TRIP)
    bases = {entry.base_cost for entry in tables.per_ugs}
    assert bases == {Fraction(1, TRIP), Fraction(1, 4), Fraction(1)}
    _assert_aggregate_matches(tables)

def test_hand_built_count_tables_aggregate():
    """A hand-built count table (not from any counter) goes through the
    same int columns as built ones."""
    nest = _strided(8, 4)
    space = UnrollSpace(nest.depth, (0,), (2,))
    built = build_tables(nest, space, trip=TRIP)
    [entry] = built.per_ugs
    odd = OffsetTable(space.dims, space.bounds, [1, 3, 7])
    tables = UnrollTables(nest, space, 4, TRIP,
                          [UgsTables(entry.ugs, entry.base_cost, odd,
                                     entry.gss, entry.rrs, entry.registers)])
    assert [tables.point(u) for u in space] == _per_set_points(tables)
    assert [tables.point(u).gts for u in space] == [1, 3, 7]
