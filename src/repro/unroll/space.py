"""Unroll vectors and the bounded unroll space (section 4.1).

An unroll vector u has one entry per loop of the nest (outermost first);
``u[k]`` is the number of *extra* body copies for loop k, so the unrolled
step is ``u[k] + 1``.  The innermost entry is always 0 -- the innermost loop
is never unroll-and-jammed.  The search space is a box: the chosen loops
range over ``0..bound`` and everything else is pinned at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

UnrollVector = tuple[int, ...]

#: Default per-loop unroll bound; the paper bounds the space in each
#: dimension and limits unrolling to at most 2 loops (§4.5).
DEFAULT_BOUND = 8

@dataclass(frozen=True)
class UnrollSpace:
    """The box of candidate unroll vectors for a nest.

    ``depth`` is the nest depth; ``dims`` the loop levels being unrolled
    (never the innermost); ``bounds[k]`` the inclusive maximum for dims[k].
    """

    depth: int
    dims: tuple[int, ...]
    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.bounds):
            raise ValueError("dims and bounds must align")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError("duplicate unroll dimensions")
        for dim in self.dims:
            if not 0 <= dim < self.depth:
                raise ValueError(f"dimension {dim} outside nest of depth {self.depth}")
            if dim == self.depth - 1:
                raise ValueError("the innermost loop is never unrolled")
        if any(b < 0 for b in self.bounds):
            raise ValueError("bounds must be non-negative")
        # Not a dataclass field (eq/hash/repr are unaffected): a level ->
        # bound mapping so `contains` runs in O(depth) instead of calling
        # dims.index per level.
        object.__setattr__(self, "_bound_by_level",
                           dict(zip(self.dims, self.bounds)))

    @staticmethod
    def for_dims(depth: int, dims: Sequence[int],
                 bound: int = DEFAULT_BOUND) -> "UnrollSpace":
        return UnrollSpace(depth, tuple(dims), tuple(bound for _ in dims))

    def embed(self, reduced: Sequence[int]) -> UnrollVector:
        """Lift a vector over ``dims`` to a full-depth unroll vector."""
        if len(reduced) != len(self.dims):
            raise ValueError("reduced vector length mismatch")
        full = [0] * self.depth
        for dim, value in zip(self.dims, reduced):
            full[dim] = value
        return tuple(full)

    def project(self, full: UnrollVector) -> tuple[int, ...]:
        """Restrict a full-depth vector to the unrolled dimensions."""
        return tuple(full[d] for d in self.dims)

    def contains(self, full: UnrollVector) -> bool:
        if len(full) != self.depth:
            return False
        by_level = self._bound_by_level
        for level, value in enumerate(full):
            bound = by_level.get(level)
            if bound is not None:
                if not 0 <= value <= bound:
                    return False
            elif value != 0:
                return False
        return True

    def __iter__(self) -> Iterator[UnrollVector]:
        """All unroll vectors of the box, lexicographic order."""
        return iter(self.vectors())

    def vectors(self) -> tuple[UnrollVector, ...]:
        """All unroll vectors of the box (cached, in the row-major order of
        :meth:`reduced_box`)."""
        return _box_vectors(self.depth, self.dims, self.bounds)

    def reduced_box(self) -> tuple[tuple[int, ...], ...]:
        """All reduced points of the box (cached, lexicographic order)."""
        return box_tuple(tuple(b + 1 for b in self.bounds))

    def __len__(self) -> int:
        size = 1
        for b in self.bounds:
            size *= b + 1
        return size

def body_copies(u: UnrollVector) -> int:
    """Number of body copies created by unroll vector u: prod(u_k + 1)."""
    copies = 1
    for entry in u:
        copies *= entry + 1
    return copies

@lru_cache(maxsize=4096)
def box_tuple(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The materialized box ``product(range(s) for s in sizes)``.

    The table builders enumerate the same small boxes thousands of times
    per analysis; caching the materialized tuples (keyed only on the box
    shape) removes the repeated product() construction.
    """
    return tuple(product(*(range(size) for size in sizes)))

@lru_cache(maxsize=4096)
def box_copies(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`body_copies` at every point of the box of ``sizes``,
    row-major."""
    column = (1,)
    for size in sizes:
        column = tuple(c * k for c in column for k in range(1, size + 1))
    return column

@lru_cache(maxsize=4096)
def _box_vectors(depth: int, dims: tuple[int, ...],
                 bounds: tuple[int, ...]) -> tuple[UnrollVector, ...]:
    template = [0] * depth
    vectors = []
    for reduced in box_tuple(tuple(b + 1 for b in bounds)):
        for dim, value in zip(dims, reduced):
            template[dim] = value
        vectors.append(tuple(template))
    return tuple(vectors)

def offsets_box(u: UnrollVector, dims: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All copy offsets over the given dims: the box 0..u[d] per dim."""
    yield from box_tuple(tuple(u[d] + 1 for d in dims))

def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise a >= b."""
    return all(x >= y for x, y in zip(a, b))
