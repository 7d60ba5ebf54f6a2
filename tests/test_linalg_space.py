"""Tests for rational vector spaces (spans, membership, intersections)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import VectorSpace

def span(*vectors, ambient=None):
    ambient = ambient if ambient is not None else len(vectors[0])
    return VectorSpace(vectors, ambient)

class TestBasics:
    def test_zero_space(self):
        z = VectorSpace.zero(3)
        assert z.dim == 0 and z.is_zero()
        assert z.contains([0, 0, 0])
        assert not z.contains([1, 0, 0])

    def test_full_space(self):
        f = VectorSpace.full(2)
        assert f.dim == 2
        assert f.contains([7, -3])

    def test_axis_span(self):
        inner = VectorSpace.spanned_by_axes([2], 3)
        assert inner.contains([0, 0, 5])
        assert not inner.contains([0, 1, 0])

    def test_axis_span_equals_eliminated_span(self):
        for axes in ([], [2], [0, 2], [2, 0, 2], [1, 0, 3, 2]):
            direct = VectorSpace.spanned_by_axes(axes, 4)
            units = [[int(i == a) for i in range(4)] for a in axes]
            eliminated = VectorSpace(units, 4)
            assert direct == eliminated
            assert direct.basis == eliminated.basis
            assert direct.axes() == eliminated.axes() == \
                tuple(sorted(set(axes)))

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            VectorSpace.spanned_by_axes([3], 3)

    def test_duplicate_spanning_vectors_collapse(self):
        s = span([1, 1], [2, 2])
        assert s.dim == 1

    def test_canonical_equality(self):
        assert span([1, 1], [1, 0]) == span([0, 1], [1, 0])
        assert span([1, 1]) != span([1, 0])

    def test_wrong_ambient_rejected(self):
        with pytest.raises(ValueError):
            VectorSpace([[1, 2, 3]], 2)
        with pytest.raises(ValueError):
            span([1, 0]).contains([1, 0, 0])

class TestMembership:
    def test_diagonal_span(self):
        s = span([1, 1])
        assert s.contains([3, 3])
        assert not s.contains([1, 2])

    def test_rational_membership(self):
        s = span([2, 4])
        assert s.contains([1, 2])

class TestLatticeOps:
    def test_sum(self):
        s = span([1, 0]).sum(span([0, 1]))
        assert s == VectorSpace.full(2)

    def test_intersection_of_planes(self):
        a = span([1, 0, 0], [0, 1, 0])
        b = span([0, 1, 0], [0, 0, 1])
        inter = a.intersect(b)
        assert inter == span([0, 1, 0], ambient=3)

    def test_intersection_disjoint(self):
        assert span([1, 0]).intersect(span([0, 1])).is_zero()

    def test_intersection_with_zero(self):
        assert span([1, 1]).intersect(VectorSpace.zero(2)).is_zero()

    def test_contains_space(self):
        assert VectorSpace.full(2).contains_space(span([1, 1]))
        assert not span([1, 1]).contains_space(VectorSpace.full(2))

vectors3 = st.lists(st.integers(-4, 4), min_size=3, max_size=3)

@st.composite
def spaces3(draw):
    count = draw(st.integers(0, 3))
    vecs = [draw(vectors3) for _ in range(count)]
    return VectorSpace(vecs, 3)

@settings(max_examples=50, deadline=None)
@given(spaces3(), spaces3())
def test_intersection_contained_in_both(a, b):
    inter = a.intersect(b)
    for vec in inter.basis:
        assert a.contains(vec)
        assert b.contains(vec)

@settings(max_examples=50, deadline=None)
@given(spaces3(), spaces3())
def test_intersection_dimension_formula(a, b):
    # dim(A) + dim(B) = dim(A+B) + dim(A ∩ B)
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim

@settings(max_examples=50, deadline=None)
@given(spaces3())
def test_intersection_with_self_is_identity(a):
    assert a.intersect(a) == a

@settings(max_examples=50, deadline=None)
@given(spaces3(), spaces3())
def test_intersection_commutes(a, b):
    assert a.intersect(b) == b.intersect(a)
