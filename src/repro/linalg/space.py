"""Subspaces of Q^n: spans of reuse vectors and localized vector spaces.

Wolf & Lam abstract the *localized iteration space* (the iterations whose
reuse a cache or register file can actually exploit) to a vector space.  The
reuse analysis then reduces to questions about these spaces: does the
self-temporal reuse space intersect the localized space?  does a group-reuse
equation have a solution inside it?  This module supplies that vocabulary.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.linalg.matrix import _UNSET, Matrix, Rational, _frac

class VectorSpace:
    """A linear subspace of Q^n represented by a canonical (RREF) basis.

    Instances are immutable and hashable; two spaces compare equal iff they
    contain exactly the same vectors.
    """

    __slots__ = ("dimension_ambient", "basis", "_axes")

    def __init__(self, vectors: Iterable[Sequence[Rational]], ambient: int):
        vecs = [tuple(_frac(x) for x in v) for v in vectors]
        if any(len(v) != ambient for v in vecs):
            raise ValueError("vector length does not match ambient dimension")
        if vecs:
            reduced = Matrix(vecs, ncols=ambient).rref()
            basis = tuple(row for row in reduced.rows if any(x != 0 for x in row))
        else:
            basis = ()
        object.__setattr__(self, "dimension_ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_axes", _UNSET)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VectorSpace is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(ambient: int) -> "VectorSpace":
        return VectorSpace([], ambient)

    @staticmethod
    def full(ambient: int) -> "VectorSpace":
        return VectorSpace(Matrix.identity(ambient).rows, ambient)

    @staticmethod
    def spanned_by_axes(axes: Iterable[int], ambient: int) -> "VectorSpace":
        """The span of the given coordinate axes (0-indexed, outer first).

        ``spanned_by_axes([n-1], n)`` is the usual "innermost loop only"
        localized space.
        """
        vectors = []
        for axis in axes:
            if not 0 <= axis < ambient:
                raise ValueError(f"axis {axis} out of range for ambient {ambient}")
            vec = [Fraction(0)] * ambient
            vec[axis] = Fraction(1)
            vectors.append(vec)
        return VectorSpace(vectors, ambient)

    # -- queries --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def axes(self) -> tuple[int, ...] | None:
        """The coordinate axes spanning this space, ascending (the order
        of :attr:`basis`), or None when it is not spanned by axes.  Cached:
        the answer never changes for an immutable space."""
        cached = self._axes
        if cached is _UNSET:
            axes = []
            for vec in self.basis:
                nonzero = [i for i, x in enumerate(vec) if x != 0]
                if len(nonzero) != 1:
                    axes = None
                    break
                axes.append(nonzero[0])
            cached = tuple(axes) if axes is not None else None
            object.__setattr__(self, "_axes", cached)
        return cached

    def contains(self, vector: Sequence[Rational]) -> bool:
        vec = tuple(_frac(x) for x in vector)
        if len(vec) != self.dimension_ambient:
            raise ValueError("vector has wrong ambient dimension")
        if all(x == 0 for x in vec):
            return True
        if not self.basis:
            return False
        span = Matrix(self.basis, ncols=self.dimension_ambient)
        return bool(span.transpose().solve(vec))

    def contains_space(self, other: "VectorSpace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def basis_matrix(self) -> Matrix:
        """Basis vectors as *columns* (an n x dim matrix)."""
        return Matrix.from_columns(self.basis, nrows=self.dimension_ambient) \
            if self.basis else Matrix([[] for _ in range(self.dimension_ambient)], ncols=0)

    # -- lattice operations ---------------------------------------------------

    def sum(self, other: "VectorSpace") -> "VectorSpace":
        self._check_ambient(other)
        return VectorSpace(list(self.basis) + list(other.basis), self.dimension_ambient)

    def intersect(self, other: "VectorSpace") -> "VectorSpace":
        """Intersection via the kernel of the stacked basis combination.

        Writing U, V for the basis column-matrices, every vector of the
        intersection is ``U a = V b``; solving ``[U | -V] [a; b] = 0`` and
        mapping the ``a`` parts through U enumerates a spanning set.
        """
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return VectorSpace.zero(self.dimension_ambient)
        u_cols = self.basis
        v_cols = other.basis
        stacked = Matrix.from_columns(
            [list(col) for col in u_cols] + [[-x for x in col] for col in v_cols],
            nrows=self.dimension_ambient)
        vectors = []
        for kernel_vec in stacked.nullspace():
            coeffs = kernel_vec[: len(u_cols)]
            combo = [sum((coeffs[k] * u_cols[k][i] for k in range(len(u_cols))), Fraction(0))
                     for i in range(self.dimension_ambient)]
            vectors.append(combo)
        return VectorSpace(vectors, self.dimension_ambient)

    def _check_ambient(self, other: "VectorSpace") -> None:
        if self.dimension_ambient != other.dimension_ambient:
            raise ValueError("ambient dimension mismatch")

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, VectorSpace)
                and self.dimension_ambient == other.dimension_ambient
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.dimension_ambient, self.basis))

    def __repr__(self) -> str:
        if not self.basis:
            return f"VectorSpace(0 in Q^{self.dimension_ambient})"
        spans = ", ".join("(" + ", ".join(str(x) for x in v) + ")" for v in self.basis)
        return f"VectorSpace(span{{{spans}}} in Q^{self.dimension_ambient})"
