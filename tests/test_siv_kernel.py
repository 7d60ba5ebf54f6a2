"""Parity of the closed-form SIV-separable kernel with the rational path.

For SIV-separable integer H and axis-spanned L, the group-reuse solve, the
spatial predicate, the self-reuse dimensions and the merge solver answer
from :mod:`repro.linalg.siv`; under
:func:`tests.reference.rational_reference` they run the rational
elimination instead.  Both must agree exactly --
including the group witness and the full :class:`MergeSolution` -- on
random inputs, and inputs outside the class (non-SIV H, non-axis L) must
still agree with the rational path.
"""

import random

import pytest

from repro.linalg import Matrix, VectorSpace, siv
from repro.reuse.group import _solve_in_space, spatial_constants_related
from repro.reuse.selfreuse import (
    has_self_spatial,
    has_self_temporal,
    localized_temporal_dim,
)
from repro.unroll.merge import solve_merge

from tests.reference import rational_reference

CASES = 600

def random_siv_matrix(rng: random.Random) -> Matrix:
    """1-3 rows over depth 1-4: each row zero or driven by its own column
    with a coefficient in ±1..3."""
    depth = rng.randint(1, 4)
    nrows = rng.randint(1, 3)
    columns = list(range(depth))
    rng.shuffle(columns)
    rows = []
    for _ in range(nrows):
        row = [0] * depth
        if columns and rng.random() < 0.8:
            row[columns.pop()] = rng.choice([1, 2, 3]) * rng.choice([1, -1])
        rows.append(row)
    return Matrix(rows, ncols=depth)

def random_axes(rng: random.Random, depth: int) -> list[int]:
    return sorted(rng.sample(range(depth), rng.randint(0, depth)))

def run_all(matrix: Matrix, delta, localized: VectorSpace, dims,
            spatial: bool, line_size):
    group = _solve_in_space(matrix, delta, localized)
    return (
        (group.exists, group.vector),
        spatial_constants_related(matrix, delta, localized, line_size),
        localized_temporal_dim(matrix, localized),
        has_self_spatial(matrix, localized),
        has_self_temporal(matrix, localized),
        solve_merge(matrix, delta, dims, localized, spatial=spatial,
                    line_size=line_size),
    )

def reference_run_all(matrix: Matrix, delta, localized: VectorSpace, dims,
                      spatial: bool, line_size):
    # Fresh, equal objects: nothing cached on the integer pass is reused.
    fresh_matrix = Matrix([list(row) for row in matrix.rows],
                          ncols=matrix.ncols)
    fresh_space = VectorSpace(localized.basis, localized.dimension_ambient)
    with rational_reference():
        assert siv.closed_form(fresh_matrix, fresh_space) is None
        return run_all(fresh_matrix, delta, fresh_space, dims, spatial,
                       line_size)

def test_kernel_matches_rational_path():
    rng = random.Random(1997)
    covered = merged = related = 0
    for case in range(CASES):
        matrix = random_siv_matrix(rng)
        depth = matrix.ncols
        localized = VectorSpace.spanned_by_axes(random_axes(rng, depth),
                                                depth)
        # dims may overlap L: the solver must then refuse a driven dim.
        dims = tuple(random_axes(rng, depth))
        delta = tuple(rng.randint(-6, 6) if rng.random() < 0.7 else 0
                      for _ in range(matrix.nrows))
        spatial = rng.random() < 0.5
        line_size = rng.choice([None, 2, 4])
        assert siv.closed_form(matrix, localized) is not None, case
        fast = run_all(matrix, delta, localized, dims, spatial, line_size)
        ref = reference_run_all(matrix, delta, localized, dims, spatial,
                                line_size)
        assert fast == ref, (case, matrix, delta, localized, dims,
                              spatial, line_size)
        covered += 1
        merged += fast[-1] is not None
        related += fast[1]
    assert covered == CASES
    # Both outcomes of the heavier predicates are exercised.
    assert 0 < merged < CASES
    assert 0 < related < CASES

@pytest.mark.parametrize("rows, localized", [
    # Non-SIV H (the B(I+J) of afold) under an axis L.
    ([[1, 1]], VectorSpace.spanned_by_axes([1], 2)),
    ([[1, 1], [0, 1]], VectorSpace.spanned_by_axes([0, 1], 2)),
    # One loop index in two subscript positions (not separable).
    ([[1, 0], [1, 0]], VectorSpace.spanned_by_axes([0], 2)),
    # SIV-separable H under a non-axis L.
    ([[1, 0], [0, 1]], VectorSpace([[1, 1]], 2)),
    ([[2, 0, 0], [0, 0, 1]], VectorSpace([[1, 0, 1]], 3)),
])
def test_uncovered_shapes_take_the_rational_path(rows, localized):
    matrix = Matrix(rows)
    assert siv.closed_form(matrix, localized) is None
    rng = random.Random(4099)
    depth = matrix.ncols
    for case in range(60):
        delta = tuple(rng.randint(-4, 4) for _ in range(matrix.nrows))
        dims = tuple(random_axes(rng, depth))
        spatial = rng.random() < 0.5
        line_size = rng.choice([None, 2, 4])
        fast = run_all(matrix, delta, localized, dims, spatial, line_size)
        ref = reference_run_all(matrix, delta, localized, dims, spatial,
                                line_size)
        assert fast == ref, (case, delta, dims, spatial, line_size)

def test_siv_rows_and_axes():
    assert Matrix([[0, 2, 0], [0, 0, 0], [-1, 0, 0]]).siv_rows() == (
        (1, 2), None, (0, -1))
    assert Matrix([[1, 1]]).siv_rows() is None
    assert Matrix([[1, 0], [2, 0]]).siv_rows() is None
    assert Matrix([["1/2", 0]]).siv_rows() is None
    assert VectorSpace.spanned_by_axes([2, 0], 3).axes() == (0, 2)
    assert VectorSpace.zero(3).axes() == ()
    assert VectorSpace([[1, 1]], 2).axes() is None
