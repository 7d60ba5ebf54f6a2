"""Self-temporal and self-spatial reuse vector spaces.

A reference ``A[H i + c]`` touches the same element at iterations i and
i + x exactly when ``H x = 0``; the kernel of H is therefore the
*self-temporal reuse vector space* R_ST.  Dropping the first (contiguous)
array dimension gives H_S, whose kernel R_SS is the *self-spatial* space:
directions along which consecutive accesses stay within the same column,
i.e. within cache-line reach.  R_ST is always a subspace of R_SS.
"""

from __future__ import annotations

from repro.linalg import Matrix, VectorSpace, siv

def self_temporal_space(matrix: Matrix) -> VectorSpace:
    """R_ST = ker(H)."""
    return VectorSpace(matrix.nullspace(), matrix.ncols)

def self_spatial_space(matrix: Matrix) -> VectorSpace:
    """R_SS = ker(H_S) where H_S zeroes the first row (column-major)."""
    return VectorSpace(matrix.with_zero_row(0).nullspace(), matrix.ncols)

def has_self_temporal(matrix: Matrix, localized: VectorSpace) -> bool:
    """Does the reference reuse the *same element* inside the localized
    iteration space?"""
    return localized_temporal_dim(matrix, localized) > 0

def has_self_spatial(matrix: Matrix, localized: VectorSpace) -> bool:
    """Does the reference stay on the same cache line along some localized
    direction (beyond pure temporal reuse)?"""
    form = siv.closed_form(matrix, localized)
    if form is not None:
        return siv.self_spatial(*form)
    return not self_spatial_space(matrix).intersect(localized).is_zero()

def localized_temporal_dim(matrix: Matrix, localized: VectorSpace) -> int:
    """dim(R_ST ∩ L): how many localized dimensions amortize the access."""
    form = siv.closed_form(matrix, localized)
    if form is not None:
        return siv.temporal_dim(*form)
    return self_temporal_space(matrix).intersect(localized).dim
