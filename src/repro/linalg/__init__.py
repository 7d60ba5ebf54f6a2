"""Exact rational linear algebra used by the reuse and unroll models.

Every quantity in the Wolf-Lam reuse model (kernels of subscript matrices,
merge-distance solutions, localized vector spaces) must be exact: a reuse
vector either lies in the localized space or it does not.  This package
therefore works over the rationals with :class:`fractions.Fraction` entries
rather than floating point.

Public API:

* :class:`Matrix` -- immutable rational matrix with solve/nullspace/rank.
* :class:`VectorSpace` -- subspace of Q^n with membership, intersection, sum.
* :class:`AffineSolution` -- solution set of ``A x = b`` (particular +
  homogeneous space), possibly empty.
* :mod:`repro.linalg.siv` -- closed-form integer answers for SIV-separable
  H and axis-spanned L, the shapes the paper's table algorithms cover.
"""

from repro.linalg.matrix import AffineSolution, Matrix
from repro.linalg.space import VectorSpace

__all__ = ["AffineSolution", "Matrix", "VectorSpace"]
