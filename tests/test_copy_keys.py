"""Integer-linear copy keys and the O(1) chain update of the keyed sweep.

:func:`repro.unroll.streams.copy_keys` gives every copy ``i@b`` of an
SIV set an int key per family, ``bases[i] + sum(strides[t] * b[t])``.
Its oracles are the tuple class keys of ``tests/reference.py``
(:func:`key_rules`, :func:`class_key`): in every family the int keys must
partition the copies exactly as the tuples do, the word must be the
contiguous subscript value, and the touch keys must order a stream class
as the touch tuples ``(time, offset, textual position)`` do.
:func:`repro.unroll.streams.touch_insert` updates a class's chain stats
from the two neighbours of a new copy; after every insertion the running
totals must equal a whole-chain recount (:func:`chain_stats`).
"""

import random
from bisect import insort

import pytest

from repro.corpus import CorpusConfig, iter_corpus
from repro.ir.parser import parse_nest
from repro.kernels import all_kernels
from repro.linalg import VectorSpace
from repro.reuse.ugs import partition_ugs
from repro.unroll.space import UnrollSpace, box_tuple
from repro.unroll.streams import copy_keys, keyed_counts, touch_insert
from tests.reference import chain_stats, class_key, key_rules, reference_counts
from tests.test_fuzz_agreement import adversarial_nest

BOUNDS = (4, 8)

HAND_BUILT = {
    # negative h on an unrolled row and on the innermost row
    "negative": """
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      A(I, 10-K) = A(I, 9-K) + A(I+1, 11-K) + B(3-J, -K) + B(4-J, 1-K)
    ENDDO
  ENDDO
ENDDO
""",
    # contiguous residues half a period apart on a circle of 8
    "strided": """
DO J = 1, N
  DO I = 1, N
    A(8*I, J) = A(8*I+4, J) + 1.0
  ENDDO
ENDDO
""",
    # residues 0 and 6 on a circle of 8: at a line of 4 the wrap-around
    # gap of 2 joins them into one run
    "wrapped": """
DO J = 1, N
  DO I = 1, N
    A(8*I, J) = A(8*I+6, J) + 1.0
  ENDDO
ENDDO
""",
    # C(I,J) is innermost-invariant: one hoisted register per class
    "invariant": """
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      C(I, J) = C(I, J) + A(I, K) * B(K, J) + E(J) + E(J+1)
    ENDDO
  ENDDO
ENDDO
""",
    # copies along J meet exactly at the box edge (J+4 at bound 4, 2*J+8)
    "box_edge": """
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      A(K, J) = A(K, J+4) + A(K+1, J+8) + B(K, 2*J) + B(K, 2*J+8)
    ENDDO
  ENDDO
ENDDO
""",
    # the store A(I,K+1) leads its stream; J is unused by A
    "store_led": """
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      A(I, K+1) = A(I, K) + A(I, K-1) * B(I, J)
      D(I, K) = A(I, K+2) + A(I-1, K)
    ENDDO
  ENDDO
ENDDO
""",
}

def _nests():
    yield from (kernel.nest for kernel in all_kernels())
    yield from iter_corpus(CorpusConfig(seed=1997), count=300)
    for seed in range(12):
        yield adversarial_nest(random.Random(1000 + seed), f"fuzz{seed}")
    for name, source in HAND_BUILT.items():
        yield parse_nest(source, name=name)

def _cases(nests, bounds=BOUNDS):
    """(set, space, localized axes) for every SIV set of ``nests``: the
    outer loops (at most two) unrolled, L the innermost loop, and for
    depth 3 also L = one outer loop plus the innermost, and L = 0."""
    for nest in nests:
        inner = nest.depth - 1
        dims = tuple(range(inner))[-2:]
        localized = [(inner,)] + ([(0, inner), (1, inner), ()]
                                  if nest.depth == 3 else [])
        for group in partition_ugs(nest):
            if group.matrix.siv_rows() is None:
                continue
            for bound in bounds:
                space = UnrollSpace.for_dims(nest.depth, dims, bound)
                for axes in localized:
                    yield group, space, axes

ALL = list(_nests())

def _key(family, i, b):
    bases, strides = family
    return bases[i] + sum(s * x for s, x in zip(strides, b))

def _same_partition(ints, tuples):
    """Equal ints exactly where the tuples are equal."""
    return len(set(zip(ints, tuples))) == len(set(ints)) == len(set(tuples))

def _touch(group, rows, inner, i, b):
    """The touch order tuple of copy ``i@b``: time in units of ``1/|h|``
    (larger subscripts first), offset, textual position, is_write."""
    member = group.members[i]
    c = group.constants()[i]
    time_row = next((r for r, entry in enumerate(rows)
                     if entry is not None and entry[0] == inner), None)
    if time_row is None:
        return (0, b, member.position, i, False)
    coef = rows[time_row][1]
    time = -c[time_row] if coef > 0 else c[time_row]
    return (time, b, member.position, i, member.is_write)

def _copies(keys, group):
    return [(i, b) for b in box_tuple(keys.sizes) for i in range(group.size)]

@pytest.mark.parametrize("chunk", range(4))
def test_int_keys_partition_like_tuple_keys(chunk):
    checked = 0
    for group, space, axes in _cases(ALL[chunk::4]):
        rows = group.matrix.siv_rows()
        inner = group.matrix.ncols - 1
        consts = group.constants()
        keys = copy_keys(group, space, axes)
        pos = {d: p for p, d in enumerate(keys.reduced)}
        copies = _copies(keys, group)
        refused = any(entry is not None and entry[0] in pos
                      and entry[0] in axes for entry in rows)
        temporal = key_rules(rows, axes, pos)
        spatial = key_rules(rows[1:], axes, pos)
        stream = key_rules(rows, (inner,), pos)
        tuples = {
            "temporal": [(i, b) if refused else
                         class_key(temporal, consts[i], b)
                         for i, b in copies],
            "spatial": [class_key(spatial, consts[i][1:], b)
                        for i, b in copies],
            "stream": [class_key(stream, consts[i], b) for i, b in copies],
        }
        for family, want in tuples.items():
            got = [_key(getattr(keys, family), i, b) for i, b in copies]
            assert _same_partition(got, want), (group.pretty(), family)

        head = rows[0]
        for i, b in copies:
            word = consts[i][0]
            if keys.modulus:
                word %= keys.modulus
            elif head is not None and head[0] in pos:
                word += head[1] * b[pos[head[0]]]
            assert _key(keys.words, i, b) == word, group.pretty()

        by_class: dict = {}
        for (i, b), s_key in zip(copies, tuples["stream"]):
            by_class.setdefault(s_key, []).append((i, b))
        for members in by_class.values():
            touch = {copy: _touch(group, rows, inner, *copy)
                     for copy in members}
            ints = {copy: _key(keys.touches, *copy) for copy in members}
            assert (sorted(members, key=touch.get)
                    == sorted(members, key=ints.get)), group.pretty()
            first = min(members, key=touch.get)
            for copy in members:
                assert ints[copy] & 1 == touch[copy][-1]
                assert (ints[copy] // keys.unit - ints[first] // keys.unit
                        == touch[copy][0] - touch[first][0])
        checked += 1
    assert checked > 100

@pytest.mark.parametrize("chunk", range(4))
def test_neighbour_update_equals_recount(chunk):
    """Insert every stream class's copies in the sweep's order and in a
    seeded shuffle; after each insertion the running (leading reads,
    registers) of the class equal a recount of its whole chain."""
    rng = random.Random(chunk)
    checked = 0
    for group, space, axes in _cases(ALL[chunk::4]):
        if axes != (group.matrix.ncols - 1,):
            continue  # the stream keys do not depend on L
        rows = group.matrix.siv_rows()
        inner = group.matrix.ncols - 1
        keys = copy_keys(group, space, axes)
        copies = _copies(keys, group)
        shuffled = copies[:]
        rng.shuffle(shuffled)
        for order in (copies, shuffled):
            chains: dict = {}
            for i, b in order:
                s_key = _key(keys.stream, i, b)
                touch = _key(keys.touches, i, b)
                if s_key not in chains:
                    # a new class: one chain, led by a read or not
                    chains[s_key] = [touch], [], [1 - (touch & 1), 0]
                    chain, oracle, totals = chains[s_key]
                else:
                    chain, oracle, totals = chains[s_key]
                    lead, span = touch_insert(chain, touch, keys.unit)
                    totals[0] += lead
                    totals[1] += span
                insort(oracle, _touch(group, rows, inner, i, b))
                want_lead, want_regs, _ = chain_stats(oracle, keys.scale)
                assert totals[0] == want_lead, group.pretty()
                assert totals[0] + totals[1] // keys.scale == want_regs, \
                    group.pretty()
                checked += 1
    assert checked > 1000

@pytest.mark.parametrize("line", [None, 1, 4])
@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_counts(name, line):
    """The sweep equals the union-find counts at every box point on the
    hand-built shapes, ``line_size=None`` included."""
    nest = parse_nest(HAND_BUILT[name], name=name)
    for group, space, axes in _cases([nest]):
        localized = VectorSpace.spanned_by_axes(list(axes), nest.depth)
        got = list(zip(*keyed_counts(group, space, localized, line)))
        want = reference_counts(group, space, localized, line)
        for at, u in enumerate(space):
            assert got[at] == want(u), (group.pretty(), axes, u)
