"""Keyed location classes against the union-find lattice counts.

On an SIV-separable set under an axis-spanned localized space,
:func:`repro.unroll.streams.keyed_counts` gives the GTS, GSS, RRS and
register counts of every point of the unroll box from one sweep over
class keys.  The union-find counters (``tests/reference.py``'s
:func:`group_count` and :func:`group_count_spatial`, and
:func:`stream_chains`) are its oracle: the two must agree at every box
point, at bounds 4 and 8, on the shapes the keys could get wrong.
"""

import pytest

from repro.corpus import CorpusConfig, iter_corpus
from repro.ir.builder import NestBuilder
from repro.kernels import kernel_by_name
from repro.linalg import VectorSpace
from repro.reuse.locality import innermost_localized_space
from repro.reuse.ugs import partition_ugs
from repro.unroll.space import UnrollSpace
from repro.unroll.streams import (
    is_analyzable,
    keyed_counts,
    pairwise_merges,
    stream_chains,
)
from repro.unroll.tables import build_tables
from tests.reference import counted_tables, group_count, group_count_spatial

LINE_SIZES = (1, 2, 4, 8, 16)

def mixed_sign():
    """Constants (0,0) and (1,-2) under a two-loop unroll: the copies merge
    at a mixed-sign offset difference (the paper_tables divergence)."""
    b = NestBuilder("mixed")
    I, J, K = b.loops(("I", 0, "N"), ("J", 2, "N"), ("K", 0, "N"))
    b.assign(b.ref("C", I, J, K),
             b.ref("A", I, J, K) + b.ref("A", I + 1, J - 2, K))
    return b.build()

def duplicate_members():
    """A read and a write of one location, plus a neighbour; J is unused
    by A, so its copies along J are textually identical."""
    b = NestBuilder("dup")
    I, J, K = b.loops(("I", 1, "N"), ("J", 1, "N"), ("K", 1, "N"))
    b.assign(b.ref("A", I, K),
             b.ref("A", I, K) + b.ref("A", I + 1, K) * b.ref("B", J, K))
    return b.build()

def def_led_unused():
    """The def A(I,K+1) is touched first in its stream and every copy along
    the unused J writes through, so chains split at each of them."""
    b = NestBuilder("defled")
    I, J, K = b.loops(("I", 1, "N"), ("J", 1, "N"), ("K", 1, "N"))
    b.assign(b.ref("A", I, K + 1),
             b.ref("A", I, K) + b.ref("A", I, K - 1) * b.ref("B", I, J))
    b.assign(b.ref("D", I, K), b.ref("A", I, K + 2) + b.ref("A", I - 1, K))
    return b.build()

def hoisted():
    """Matrix multiply: C(I,J) is innermost-invariant (one register per
    stream, load hoisted and store sunk), E(J) a read-only invariant."""
    b = NestBuilder("hoisted")
    I, J, K = b.loops(("I", 0, "N"), ("J", 0, "N"), ("K", 0, "N"))
    b.assign(b.ref("C", I, J),
             b.ref("C", I, J) + b.ref("A", I, K) * b.ref("B", K, J)
             + b.ref("E", J) + b.ref("E", J + 1))
    return b.build()

def coefficients():
    """Coefficients -1 and 2, on unrolled rows and on the innermost row
    (touch times in half iterations, streams split by residue)."""
    b = NestBuilder("coef")
    I, J, K = b.loops(("I", 1, "N"), ("J", 1, "N"), ("K", 1, "N"))
    b.assign(b.ref("D", 4 - J, K),
             b.ref("A", 2 * I, 10 - K) + b.ref("A", 2 * I + 1, 10 - K)
             + b.ref("A", 2 * I + 2, 9 - K) + b.ref("B", J, 2 * K)
             + b.ref("B", J, 2 * K + 1) + b.ref("B", J - 1, 2 * K + 2)
             + b.ref("B", 3 - J, 2 * K))
    b.assign(b.ref("A", 2 * I, 8 - K), b.ref("D", 5 - J, K + 1))
    return b.build()

CASES = {fn.__name__: fn for fn in (mixed_sign, duplicate_members,
                                    def_led_unused, hoisted, coefficients)}

#: Localized spaces, as axes of the depth-3 nests: the innermost loop;
#: J plus the innermost loop (J is unrolled, so a set J drives is the
#: refusal shape); I plus the innermost loop; nothing localized.
LOCALIZED = {"inner": (2,), "J+inner": (1, 2), "I+inner": (0, 2),
             "none": ()}

def oracle(group, u, dims, localized, line):
    summary = stream_chains(group, u, dims)
    return (group_count(group, u, dims, localized),
            group_count_spatial(group, u, dims, localized, line),
            summary.memory_ops, summary.registers)

def assert_every_point(nest, space, localized, lines):
    for group in partition_ugs(nest):
        for line in lines:
            counts = keyed_counts(group, space, localized, line)
            for u in space:
                assert counts(u) == oracle(group, u, space.dims, localized,
                                           line), (group.array, line, u)

@pytest.mark.parametrize("where", LOCALIZED)
@pytest.mark.parametrize("case", CASES)
def test_every_box_point_bound_4(case, where):
    nest = CASES[case]()
    space = UnrollSpace(3, (0, 1), (4, 4))
    localized = VectorSpace.spanned_by_axes(list(LOCALIZED[where]), 3)
    assert_every_point(nest, space, localized, LINE_SIZES)

@pytest.mark.parametrize("where", ["inner", "J+inner"])
@pytest.mark.parametrize("case", CASES)
def test_every_box_point_bound_8(case, where):
    nest = CASES[case]()
    space = UnrollSpace(3, (0, 1), (8, 8))
    localized = VectorSpace.spanned_by_axes(list(LOCALIZED[where]), 3)
    assert_every_point(nest, space, localized, (1, 4))

@pytest.mark.parametrize("dims", [(0,), (1,), ()])
def test_one_and_zero_unrolled_dims(dims):
    for case in CASES.values():
        nest = case()
        space = UnrollSpace.for_dims(3, dims, 8)
        assert_every_point(nest, space, innermost_localized_space(nest),
                           (2, 8))

def test_refusal_shape():
    """A driven unrolled dim inside L: merge_parts refuses every pair, so
    every copy is its own group-temporal class."""
    nest = coefficients()
    space = UnrollSpace(3, (0, 1), (8, 8))
    localized = VectorSpace.spanned_by_axes([1, 2], 3)
    b_set = max((g for g in partition_ugs(nest) if g.array == "B"),
                key=lambda g: g.size)
    assert b_set.size == 3
    assert pairwise_merges(b_set, space.dims, localized) == []
    counts = keyed_counts(b_set, space, localized, 4)
    for u in space:
        assert counts(u)[0] == b_set.size * (u[1] + 1)

def _counts(tables):
    return [table.counts for table in tables]

def test_non_innermost_localized_tables():
    """L != innermost (merges for GTS differ from the register merges):
    the built tables equal the union-find tables, set by set."""
    for case in CASES.values():
        nest = case()
        space = UnrollSpace(3, (0, 1), (4, 4))
        for axes in ((1, 2), (0, 2), ()):
            localized = VectorSpace.spanned_by_axes(list(axes), 3)
            built = build_tables(nest, space, line_size=4,
                                 localized=localized)
            for entry in built.per_ugs:
                expected = counted_tables(entry.ugs, space, localized, 4)
                got = [entry.gts, entry.gss, entry.rrs, entry.registers]
                assert _counts(got) == _counts(expected), \
                    (nest.name, axes, entry.ugs.array)

def test_corpus_tables_match_union_find():
    """Every UGS of a seeded corpus slice: the built tables are the
    union-find tables, and every SIV set takes the keyed path."""
    keyed = 0
    for nest in iter_corpus(CorpusConfig(seed=20261017), count=60):
        if nest.depth < 2:
            continue
        dims = tuple(range(nest.depth - 1))[-2:]
        space = UnrollSpace.for_dims(nest.depth, dims, 4)
        localized = innermost_localized_space(nest)
        built = build_tables(nest, space, line_size=4)
        for entry in built.per_ugs:
            if is_analyzable(entry.ugs):
                keyed += 1
            expected = counted_tables(entry.ugs, space, localized, 4)
            got = [entry.gts, entry.gss, entry.rrs, entry.registers]
            assert _counts(got) == _counts(expected), nest.name
    assert keyed > 50

def non_siv():
    """Non-SIV reads and a non-SIV store: I+J shares a row, J+K (B's
    contiguous row) leaves B's spatial H with I alone, and C(J+K) does not
    use the unrolled I, so its copies along I are textually identical."""
    b = NestBuilder("nonsiv")
    I, J, K = b.loops(("I", 0, "N"), ("J", 0, "N"), ("K", 0, "N"))
    b.assign(b.ref("A", I + J, K),
             b.ref("A", I + J, K) + b.ref("A", I + J + 1, K - 1)
             * b.ref("B", J + K, I) + b.ref("C", J + K))
    return b.build()

@pytest.mark.parametrize("bound", [4, 8])
@pytest.mark.parametrize("nest, dims", [
    (kernel_by_name("afold").nest, (0,)),
    (non_siv(), (0, 1)),
    (non_siv(), (1,)),
], ids=["afold-I", "nonsiv-IJ", "nonsiv-J"])
def test_non_siv_tables_match_union_find(nest, dims, bound):
    """No copies of a non-SIV set merge: the closed form of keyed_counts
    gives the reference tables at every box point."""
    space = UnrollSpace.for_dims(nest.depth, dims, bound)
    built = build_tables(nest, space, line_size=4)
    localized = innermost_localized_space(nest)
    assert any(not is_analyzable(entry.ugs) for entry in built.per_ugs)
    for entry in built.per_ugs:
        expected = counted_tables(entry.ugs, space, localized, 4)
        got = [entry.gts, entry.gss, entry.rrs, entry.registers]
        assert _counts(got) == _counts(expected), entry.ugs.pretty()

def test_non_axis_localized_space_is_refused():
    """The keyed classes need L spanned by axes; any other L is a typed
    error, not a silent fallback."""
    nest = non_siv()
    space = UnrollSpace(3, (0, 1), (4, 4))
    diagonal = VectorSpace([[1, 1, 1]], 3)
    for sets in (None, []):
        with pytest.raises(ValueError, match="not spanned by axes"):
            build_tables(nest, space, localized=diagonal, ugs=sets)
    for group in partition_ugs(nest):
        with pytest.raises(ValueError, match="not spanned by axes"):
            keyed_counts(group, space, diagonal, 4)
