"""Partitioning references into uniformly generated sets (Definition 1).

Two references belong to the same UGS when they name the same array and
share the subscript matrix H *and* the symbolic (parameter) parts of their
constant vectors.  The last condition is an engineering refinement: the
paper's constant vectors are integer, so two references whose offsets differ
by an unknown symbolic amount (``A(I)`` vs ``A(I+N)``) cannot have a known
reuse distance and must not share a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.ir.matrixform import (
    RefOccurrence,
    constant_vector,
    occurrences,
    param_signature,
    reference_matrix,
)
from repro.ir.nodes import LoopNest
from repro.linalg import Matrix

@dataclass(frozen=True)
class UniformlyGeneratedSet:
    """One UGS: the shared (array, H) plus the member occurrences.

    Members are stored in lexicographically increasing order of their
    constant vectors (ties broken by textual position), the order every
    table algorithm of the paper assumes.
    """

    array: str
    matrix: Matrix  # H, one row per array dimension
    members: tuple[RefOccurrence, ...]
    index_names: tuple[str, ...]

    @cached_property
    def spatial_matrix(self) -> Matrix:
        """H_S: first (contiguous, column-major) dimension dropped."""
        return self.matrix.with_zero_row(0)

    @cached_property
    def _constants(self) -> tuple[tuple[int, ...], ...]:
        return tuple(constant_vector(m.ref) for m in self.members)

    def constants(self) -> list[tuple[int, ...]]:
        """The members' constant vectors, in member order (a fresh list)."""
        return list(self._constants)

    @property
    def size(self) -> int:
        return len(self.members)

    def pretty(self) -> str:
        refs = ", ".join(m.pretty() for m in self.members)
        return f"UGS[{self.array}: {refs}]"

def partition_ugs(nest: LoopNest) -> list[UniformlyGeneratedSet]:
    """Partition all occurrences of a nest into uniformly generated sets.

    The result is ordered by first textual appearance; members inside each
    set follow lexicographic constant-vector order.  References group by
    their integer coefficient rows (the rows of H); the Fraction matrix is
    built once per set.
    """
    index_names = nest.index_names
    groups: dict[tuple, list[RefOccurrence]] = {}
    for occ in occurrences(nest):
        subs = occ.ref.subscripts
        rows = tuple(tuple(sub.coeff(name) for name in index_names)
                     for sub in subs)
        groups.setdefault((occ.array, rows, param_signature(occ.ref)),
                          []).append(occ)

    sets = []
    for group in groups.values():
        members = sorted(group,
                         key=lambda o: (constant_vector(o.ref), o.position))
        first = members[0]
        sets.append(UniformlyGeneratedSet(
            first.array, reference_matrix(first.ref, index_names),
            tuple(members), index_names))
    return sets
