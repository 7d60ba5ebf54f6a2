"""The merge-point solver (heart of section 4.2).

Copies of two references r_s, r_t of one UGS (constants c_s, c_t) land in
the same reuse group after unroll-and-jam exactly when the copy-offset
difference k solves

    H k  ≡  c_t - c_s   (mod H·L)

with k supported on the unrolled dimensions and the residual motion lying
in the localized space L (for registers and temporal cache reuse: the
innermost loop).  Under the paper's SIV + separability restriction the
solution is unique when it exists; we solve the stacked system

    [ H e_d1 | H e_d2 | ... | H b_1 | H b_2 | ... ] [k ; l] = Δc

exactly over Q and demand integrality of the copy-offset part.  When H
is SIV-separable and L is spanned by axes the system decouples into one
integer test per row (:func:`repro.linalg.siv.merge_parts`); the
elimination below handles every other shape.

The returned :class:`MergeSolution` carries the signed offset difference
(the paper's r-hat) and the residual distance along the innermost loop,
which the register model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.linalg import Matrix, VectorSpace, siv

@dataclass(frozen=True)
class MergeSolution:
    """Solution of one merge equation.

    ``offset`` is the signed copy-offset difference over the unrolled
    dimensions (reduced coordinates, aligned with the ``dims`` argument).
    ``inner_distance`` is the residual reuse distance along the localized
    (innermost) direction, in iterations; positive means the second
    (lexicographically greater) reference touches a location that many
    innermost iterations *before* the first one does... concretely it is
    the coefficient of the innermost basis vector of L in the witness.
    ``spatial_residual`` is the leftover first-dimension distance for
    spatial merges (0 for temporal merges).
    """

    offset: tuple[int, ...]
    inner_distance: Fraction
    spatial_residual: Fraction = Fraction(0)

def solve_merge(matrix: Matrix, delta: tuple[int, ...],
                dims: tuple[int, ...], localized: VectorSpace,
                spatial: bool = False,
                line_size: int | None = None) -> MergeSolution | None:
    """Solve ``H k = delta (mod H L)`` for the copy offset k.

    ``matrix`` is the UGS subscript matrix H; ``delta`` the constant-vector
    difference c_t - c_s; ``dims`` the unrolled loop levels.  With
    ``spatial=True`` the first array dimension is dropped (H_S) and
    ``line_size`` caps the residual contiguous-dimension distance.

    Returns None when no (unique, integral) merge offset exists.  Offsets
    may be negative: copies merge when their offset difference matches,
    whichever side is ahead.
    """
    form = siv.closed_form(matrix, localized)
    if form is not None:
        parts = siv.merge_parts(*form, dims, delta, spatial)
        if parts is None:
            return None
        return _result(dims, *parts, localized.basis, matrix, delta, spatial,
                       line_size)
    work = matrix.with_zero_row(0) if spatial else matrix
    rhs = list(delta)
    if spatial:
        rhs[0] = 0

    depth = matrix.ncols
    columns: list[tuple[Fraction, ...]] = []
    col_kind: list[tuple[str, int]] = []  # ("k", reduced index) or ("l", basis index)
    for reduced_idx, dim in enumerate(dims):
        unit = [Fraction(0)] * depth
        unit[dim] = Fraction(1)
        col = work.matvec(unit)
        if any(x != 0 for x in col):
            columns.append(col)
            col_kind.append(("k", reduced_idx))
    basis = localized.basis
    for basis_idx, vec in enumerate(basis):
        col = work.matvec(vec)
        if any(x != 0 for x in col):
            columns.append(col)
            col_kind.append(("l", basis_idx))

    if not columns:
        if all(x == 0 for x in rhs):
            return _result(dims, {}, {}, basis, matrix, delta, spatial, line_size)
        return None

    system = Matrix.from_columns(columns, nrows=depth)
    sol = system.solve(rhs)
    if not sol:
        return None
    if sol.homogeneous:
        # An ambiguous system mixes unrolled and localized directions; the
        # SIV + separability restriction rules this out, and we refuse to
        # guess outside it unless the freedom stays within the localized
        # part (then any representative works).
        for hvec in sol.homogeneous:
            for coord, (kind, _) in zip(hvec, col_kind):
                if kind == "k" and coord != 0:
                    return None

    k_parts = {idx: val for val, (kind, idx) in zip(sol.particular, col_kind)
               if kind == "k"}
    l_parts = {idx: val for val, (kind, idx) in zip(sol.particular, col_kind)
               if kind == "l"}
    if any(val.denominator != 1 for val in k_parts.values()):
        return None
    return _result(dims, k_parts, l_parts, basis, matrix, delta, spatial,
                   line_size)

def _result(dims: tuple[int, ...], k_parts: dict[int, Fraction],
            l_parts: dict[int, Fraction], basis, matrix: Matrix,
            delta: tuple[int, ...], spatial: bool,
            line_size: int | None) -> MergeSolution | None:
    offset = tuple(int(k_parts.get(i, 0)) for i in range(len(dims)))

    depth = matrix.ncols
    inner = Fraction(0)
    witness = [Fraction(0)] * depth
    for idx, coef in l_parts.items():
        for pos, component in enumerate(basis[idx]):
            witness[pos] += coef * component
    inner = witness[depth - 1]

    residual = Fraction(0)
    if spatial:
        # Distance along the contiguous dimension left after the witness
        # motion: |Δc_0 - (H (k + l))_0|.
        moved = [Fraction(0)] * depth
        for i, dim in enumerate(dims):
            moved[dim] += Fraction(offset[i])
        for pos in range(depth):
            moved[pos] += witness[pos]
        first = matrix.matvec(moved)[0]
        residual = abs(Fraction(delta[0]) - first)
        if line_size is not None and residual >= line_size:
            return None
    else:
        # A temporal merge needs an *integral* residual motion: reuse
        # happens at whole iterations.
        if any(w.denominator != 1 for w in witness):
            return None

    return MergeSolution(offset, inner, residual)
