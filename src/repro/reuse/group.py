"""Group-temporal and group-spatial reuse partitions (GTS / GSS).

Two references of one UGS have group-temporal reuse iff ``H x = c2 - c1``
has a solution x inside the localized vector space L; group-spatial reuse
uses H_S and ignores the first (contiguous) dimension of the constant
difference.  Partitions are computed by union-find over the pairwise tests;
each resulting group is led by its lexicographically smallest member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.ir.matrixform import RefOccurrence, constant_vector
from repro.linalg import Matrix, VectorSpace, siv
from repro.linalg.matrix import int_fraction
from repro.reuse.ugs import UniformlyGeneratedSet

@dataclass(frozen=True)
class GroupSolution:
    """Outcome of a group-reuse equation ``H x = Δc`` restricted to L."""

    exists: bool
    vector: tuple[Fraction, ...] = ()  # a witness x in L (when it exists)

    def __bool__(self) -> bool:
        return self.exists

NO_GROUP_REUSE = GroupSolution(exists=False)

def _solve_in_space(matrix: Matrix, delta: tuple[int, ...],
                    localized: VectorSpace) -> GroupSolution:
    """Does ``matrix @ x = delta`` admit a solution x in ``localized``?"""
    form = siv.closed_form(matrix, localized)
    if form is not None:
        witness = siv.solve_in_space(*form, matrix.ncols, delta)
        if witness is None:
            return NO_GROUP_REUSE
        return GroupSolution(True, tuple(map(int_fraction, witness)))
    if all(d == 0 for d in delta):
        return GroupSolution(True, tuple(Fraction(0) for _ in range(matrix.ncols)))
    if localized.is_zero():
        return NO_GROUP_REUSE
    basis_cols = localized.basis  # rows of basis vectors
    restricted = Matrix.from_columns([matrix.matvec(b) for b in basis_cols],
                                     nrows=matrix.nrows)
    sol = restricted.solve(list(delta))
    if not sol:
        return NO_GROUP_REUSE
    if not _integral_solution_in_space(matrix, delta, localized):
        # Reuse happens at whole iterations: a solution forced to be
        # fractional (A(2K) vs A(2K+1)) is no reuse at all.
        return NO_GROUP_REUSE
    witness = [Fraction(0)] * matrix.ncols
    for coef, basis_vec in zip(sol.particular, basis_cols):
        for i, x in enumerate(basis_vec):
            witness[i] += coef * x
    return GroupSolution(True, tuple(witness))

def _integral_solution_in_space(matrix: Matrix, delta: tuple[int, ...],
                                localized: VectorSpace) -> bool:
    """Does ``matrix @ x = delta`` have an *integer* solution x in L?

    Membership in L is encoded as annihilator equations and the stacked
    integer system solved exactly over the Hermite normal form.
    """
    from repro.linalg.lattice import annihilator_rows, integer_solvable

    ann = annihilator_rows(localized.basis, matrix.ncols)
    stacked = matrix.stack(ann) if ann.nrows else matrix
    rhs = list(delta) + [0] * ann.nrows
    return integer_solvable(stacked, rhs)

def spatial_constants_related(matrix: Matrix, delta: tuple[int, ...],
                              localized: VectorSpace,
                              line_size: int | None) -> bool:
    """The canonical group-spatial test between two constant vectors of a
    UGS: does ``H_S x = trunc(delta)`` have a solution x in L whose
    *minimal achievable* first-dimension residual stays within a line?

    The residual is minimized over the whole solution set: if any
    homogeneous direction of the restricted system moves the first
    dimension, the residual can be driven to zero (the localized motion
    can line the two references up).  This keeps the predicate independent
    of which witness the solver happens to return.
    """
    form = siv.closed_form(matrix, localized)
    if form is not None:
        return siv.spatial_related(*form, delta, line_size)
    spatial = matrix.with_zero_row(0)
    truncated = list(delta)
    truncated[0] = 0
    if localized.is_zero():
        if any(truncated):
            return False
        residual = abs(Fraction(delta[0]))
        return line_size is None or residual < line_size
    basis_cols = localized.basis
    restricted = Matrix.from_columns(
        [spatial.matvec(b) for b in basis_cols], nrows=matrix.nrows)
    sol = restricted.solve(truncated)
    if not sol:
        return False
    if not _integral_solution_in_space(spatial, tuple(truncated), localized):
        return False
    if line_size is None:
        return True
    # First-dimension motion of the particular solution through full H.
    moved = Fraction(0)
    for coef, basis_vec in zip(sol.particular, basis_cols):
        row0 = matrix.matvec(basis_vec)[0]
        moved += coef * row0
    # Homogeneous (integer-step) freedom moves the first dimension on a
    # lattice; fold the residual into it and take the nearest point.
    images = []
    for hom in sol.homogeneous:
        row0 = Fraction(0)
        for coef, basis_vec in zip(hom, basis_cols):
            row0 += coef * matrix.matvec(basis_vec)[0]
        if row0 != 0:
            images.append(abs(row0))
    residual = abs(Fraction(delta[0]) - moved)
    if images:
        lattice = images[0]
        for image in images[1:]:
            lattice = _fraction_gcd(lattice, image)
        folded = residual - lattice * (residual / lattice).__floor__()
        residual = min(folded, abs(lattice - folded))
    return residual < line_size

def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    from math import gcd

    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)

def _delta(c_from: tuple[int, ...], c_to: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b - a for a, b in zip(c_from, c_to))

def group_temporal_solution(ugs: UniformlyGeneratedSet,
                            a: RefOccurrence, b: RefOccurrence,
                            localized: VectorSpace) -> GroupSolution:
    """Group-temporal test between two members of one UGS."""
    delta = _delta(constant_vector(a.ref), constant_vector(b.ref))
    return _solve_in_space(ugs.matrix, delta, localized)

def group_spatial_solution(ugs: UniformlyGeneratedSet,
                           a: RefOccurrence, b: RefOccurrence,
                           localized: VectorSpace,
                           line_size: int | None = None) -> GroupSolution:
    """Group-spatial test: first dimension truncated from both H and Δc.

    ``line_size`` optionally caps the residual first-dimension offset: two
    references whose contiguous-dimension distance is at least a full line
    never share one (a refinement over the pure Wolf-Lam definition; pass
    None for the textbook behaviour).  The residual is canonical -- the
    minimum over the whole solution set -- so the outcome never depends on
    an arbitrary witness (see :func:`spatial_constants_related`).
    """
    delta_full = _delta(constant_vector(a.ref), constant_vector(b.ref))
    if spatial_constants_related(ugs.matrix, delta_full, localized,
                                 line_size):
        return GroupSolution(True,
                             tuple(Fraction(0) for _ in range(ugs.matrix.ncols)))
    return NO_GROUP_REUSE

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

def _partition(ugs: UniformlyGeneratedSet, related) -> list[tuple[RefOccurrence, ...]]:
    members = ugs.members
    uf = _UnionFind(len(members))
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if related(members[i], members[j]):
                uf.union(i, j)
    groups: dict[int, list[RefOccurrence]] = {}
    for i, member in enumerate(members):
        groups.setdefault(uf.find(i), []).append(member)
    # Members are already in lexicographic order, so each group is too and
    # group order follows each group's leader.
    return [tuple(groups[root]) for root in sorted(groups)]

def group_temporal_partition(ugs: UniformlyGeneratedSet,
                             localized: VectorSpace) -> list[tuple[RefOccurrence, ...]]:
    """The GTS partition of a UGS; each group in lexicographic order."""
    return _partition(
        ugs, lambda a, b: bool(group_temporal_solution(ugs, a, b, localized)))

def group_spatial_partition(ugs: UniformlyGeneratedSet,
                            localized: VectorSpace,
                            line_size: int | None = None) -> list[tuple[RefOccurrence, ...]]:
    """The GSS partition of a UGS.

    Group-temporal reuse implies group-spatial reuse, so every GSS is a
    union of GTSs.
    """
    return _partition(
        ugs, lambda a, b: bool(group_spatial_solution(ugs, a, b, localized,
                                                      line_size)))

def group_leaders(groups: list[tuple[RefOccurrence, ...]]) -> list[RefOccurrence]:
    return [group[0] for group in groups]
