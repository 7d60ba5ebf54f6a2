"""The integer UGS identity against its Fraction-matrix reference.

:func:`repro.reuse.ugs.partition_ugs` groups references by their integer
coefficient rows and :func:`repro.engine.ugscache.ugs_signature` keys sets
by int rows and localized axes.  On the 19 kernels and the first 300
seed-1997 corpus nests, the partition must equal a grouping by
``(array, reference_matrix, param_signature)`` -- same sets, set order,
member order and matrix -- and two sets must share a signature exactly
when their Fraction-row signatures are equal, so UGS-cache hits and
misses cannot change.
"""

import pytest

from repro.corpus import CorpusConfig, iter_corpus
from repro.engine.ugscache import UGS_FORMAT_VERSION, ugs_signature
from repro.ir.matrixform import (
    constant_vector,
    occurrences,
    param_signature,
    reference_matrix,
)
from repro.kernels import all_kernels
from repro.linalg import VectorSpace
from repro.reuse.ugs import partition_ugs
from repro.unroll.space import UnrollSpace

def _nests():
    yield from (kernel.nest for kernel in all_kernels())
    yield from iter_corpus(CorpusConfig(seed=1997), count=300)

def _reference_partition(nest):
    """(array, H, members) per set, grouped by the Fraction matrix."""
    index_names = nest.index_names
    groups = {}
    for occ in occurrences(nest):
        key = (occ.array, reference_matrix(occ.ref, index_names),
               param_signature(occ.ref))
        groups.setdefault(key, []).append(occ)
    return [(array, matrix,
             tuple(sorted(members,
                          key=lambda o: (constant_vector(o.ref), o.position))))
            for (array, matrix, _), members in groups.items()]

def _reference_signature(group, space, localized, line_size, trip):
    """The signature over the Fraction rows of H and the Fraction basis."""
    members = group.members
    consts = [constant_vector(m.ref) for m in members]
    normalized = tuple(tuple(c - b for c, b in zip(vec, consts[0]))
                       for vec in consts)
    by_position = sorted(range(len(members)),
                         key=lambda i: members[i].position)
    ranks = [0] * len(members)
    for rank, member in enumerate(by_position):
        ranks[member] = rank
    return (UGS_FORMAT_VERSION, group.matrix.rows, normalized,
            tuple(m.is_write for m in members), tuple(ranks),
            space.depth, space.dims, space.bounds,
            localized.dimension_ambient, localized.basis, line_size, trip)

def test_partition_matches_fraction_matrix_grouping():
    nests = 0
    for nest in _nests():
        got = [(s.array, s.matrix, s.members) for s in partition_ugs(nest)]
        assert got == _reference_partition(nest), nest.name
        for ugs in partition_ugs(nest):
            assert ugs.index_names == nest.index_names
            assert ugs.constants() == [constant_vector(m.ref)
                                       for m in ugs.members]
        nests += 1
    assert nests == 319

def _localized_spaces(depth):
    """Axis-spanned spaces: innermost, everything, none."""
    yield VectorSpace.spanned_by_axes([depth - 1], depth)
    yield VectorSpace.spanned_by_axes(list(range(depth)), depth)
    yield VectorSpace.spanned_by_axes([], depth)

def test_signatures_equal_exactly_when_fraction_signatures_are():
    # Each Fraction-row signature must map to one integer signature and
    # back: the same sets share a cache entry either way.
    forward, backward = {}, {}
    probes = refused = 0
    for nest in _nests():
        dims = tuple(range(nest.depth - 1))[-2:]
        for bound in (2, 4):
            space = UnrollSpace.for_dims(nest.depth, dims, bound)
            # A space not spanned by axes has no signature, as
            # build_tables refuses it too.
            if nest.depth > 1:
                diagonal = VectorSpace([[1] * nest.depth], nest.depth)
                for group in partition_ugs(nest):
                    with pytest.raises(ValueError,
                                       match="not spanned by axes"):
                        ugs_signature(group, space, diagonal, 4, 100)
                    refused += 1
            for localized in _localized_spaces(nest.depth):
                for group in partition_ugs(nest):
                    new = ugs_signature(group, space, localized, 4, 100)
                    old = _reference_signature(group, space, localized, 4,
                                               100)
                    assert forward.setdefault(old, new) == new
                    assert backward.setdefault(new, old) == old
                    probes += 1
    # Many sets share a signature, or the bijection says nothing about
    # cache hits.
    assert probes > 2 * len(forward) > 0
    assert refused > 0
