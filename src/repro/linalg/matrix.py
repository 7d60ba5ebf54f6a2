"""Immutable exact rational matrices.

Sizes in this project are tiny (loop depths <= 6, array ranks <= 4), but
the merge-point solver and the locality scorer run eliminations inside the
hottest analysis loops, so arithmetic overhead matters.  Two exact paths
coexist:

* an **integer-first** path for all-integer matrices (the common case for
  subscript matrices H): fraction-free Bareiss forward elimination over
  plain ``int``, normalizing to :class:`fractions.Fraction` only at the
  boundary.  The reduced row echelon form of a matrix is unique, so every
  derived quantity (rank, nullspace, solve) is bit-identical to the
  reference path;
* the reference Gauss-Jordan elimination over ``Fraction``, kept both as
  the fallback for genuinely rational matrices and as the seed algorithm
  the parity fuzz suite compares against (see
  :func:`fraction_elimination`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Rational = int | Fraction

def _frac(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)

_INT_FRACTIONS: dict[int, Fraction] = {}

def int_fraction(value: int) -> Fraction:
    """An interned ``Fraction(value)`` for the small integers the counting
    paths produce; Fractions are immutable, so sharing instances is safe."""
    got = _INT_FRACTIONS.get(value)
    if got is None:
        got = Fraction(value)
        if len(_INT_FRACTIONS) < 65536:
            _INT_FRACTIONS[value] = got
    return got

#: When False, every elimination runs the reference Fraction path -- the
#: seed algorithm.  Toggled by :func:`fraction_elimination` for parity
#: tests and seed-path benchmark measurements.
_INTEGER_FAST_PATH = True

@contextmanager
def fraction_elimination() -> Iterator[None]:
    """Force the reference Fraction elimination (the seed algorithm) for
    the duration of the block.  Used by parity tests and by the
    cold-analysis benchmark's seed-path measurement."""
    global _INTEGER_FAST_PATH
    previous = _INTEGER_FAST_PATH
    _INTEGER_FAST_PATH = False
    try:
        yield
    finally:
        _INTEGER_FAST_PATH = previous

def _freeze(rows: Iterable[Iterable[Rational]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(_frac(x) for x in row) for row in rows)

#: Sentinel for the lazily computed integer-rows cache.
_UNSET = object()

#: The SIV-separable form of a matrix: per row, the (driver column, ``int``
#: coefficient) of its single non-zero, or None for a zero row.
SivRows = tuple[tuple[int, int] | None, ...]

@dataclass(frozen=True)
class AffineSolution:
    """The solution set of ``A x = b``.

    ``particular`` is one solution; ``homogeneous`` is a basis of the kernel
    of ``A``.  The full solution set is ``particular + span(homogeneous)``.
    An inconsistent system is represented by :data:`NO_SOLUTION` (where
    ``exists`` is False).
    """

    exists: bool
    particular: tuple[Fraction, ...] = ()
    homogeneous: tuple[tuple[Fraction, ...], ...] = ()

    def is_unique(self) -> bool:
        return self.exists and not self.homogeneous

    def __bool__(self) -> bool:
        return self.exists

NO_SOLUTION = AffineSolution(exists=False)

class Matrix:
    """An immutable matrix over the rationals.

    Rows are tuples of :class:`fractions.Fraction`.  All arithmetic is exact.
    """

    __slots__ = ("rows", "nrows", "ncols", "_int_rows", "_siv_rows")

    def __init__(self, rows: Iterable[Iterable[Rational]], ncols: int | None = None):
        frozen = _freeze(rows)
        if frozen:
            width = len(frozen[0])
            if any(len(row) != width for row in frozen):
                raise ValueError("ragged rows in matrix")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row width {width}")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit ncols")
            width = ncols
        object.__setattr__(self, "rows", frozen)
        object.__setattr__(self, "nrows", len(frozen))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "_int_rows", _UNSET)
        object.__setattr__(self, "_siv_rows", _UNSET)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # __slots__ plus the blocked __setattr__ defeat default pickling;
        # rebuild through the constructor instead (needed to ship analysis
        # results across process-pool workers).
        return (Matrix, (self.rows, self.ncols))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[Fraction(0)] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Rational]], nrows: int | None = None) -> "Matrix":
        if not columns:
            if nrows is None:
                raise ValueError("empty column list needs explicit nrows")
            return Matrix([[] for _ in range(nrows)], ncols=0) if nrows else Matrix([], ncols=0)
        height = len(columns[0])
        if any(len(col) != height for col in columns):
            raise ValueError("ragged columns")
        return Matrix([[columns[j][i] for j in range(len(columns))] for i in range(height)],
                      ncols=len(columns))

    # -- basics ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.ncols)], ncols=self.nrows)

    def with_zero_row(self, index: int) -> "Matrix":
        """A copy of this matrix whose ``index``-th row is zeroed.

        Used to build the *spatial* subscript matrix H_S: with column-major
        storage the first (fastest-varying) array dimension is dropped when
        testing for spatial reuse.
        """
        rows = [tuple(Fraction(0) for _ in row) if i == index else row
                for i, row in enumerate(self.rows)]
        return Matrix(rows, ncols=self.ncols)

    def integer_rows(self) -> tuple[tuple[int, ...], ...] | None:
        """The rows as plain ``int`` tuples when every entry is integral,
        else None.  Cached: the answer never changes for an immutable
        matrix."""
        cached = self._int_rows
        if cached is _UNSET:
            if all(x.denominator == 1 for row in self.rows for x in row):
                cached = tuple(tuple(x.numerator for x in row)
                               for row in self.rows)
            else:
                cached = None
            object.__setattr__(self, "_int_rows", cached)
        return cached

    def siv_rows(self) -> SivRows | None:
        """The SIV-separable form (§3.5, :data:`SivRows`), or None when the
        matrix is not integral or some row or column has more than one
        non-zero.  Cached like :meth:`integer_rows`."""
        cached = self._siv_rows
        if cached is _UNSET:
            cached = _siv_form(self.integer_rows())
            object.__setattr__(self, "_siv_rows", cached)
        return cached

    # -- arithmetic -----------------------------------------------------------

    def matvec(self, vector: Sequence[Rational]) -> tuple[Fraction, ...]:
        if len(vector) != self.ncols:
            raise ValueError(f"vector length {len(vector)} != ncols {self.ncols}")
        ints = self.integer_rows() if _INTEGER_FAST_PATH else None
        if ints is not None and all(type(x) is int for x in vector):
            return tuple(Fraction(sum(row[j] * vector[j]
                                      for j in range(self.ncols)))
                         for row in ints)
        vec = [_frac(x) for x in vector]
        return tuple(sum((row[j] * vec[j] for j in range(self.ncols)), Fraction(0))
                     for row in self.rows)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matmul")
        if _INTEGER_FAST_PATH:
            a, b = self.integer_rows(), other.integer_rows()
            if a is not None and b is not None:
                return Matrix(
                    [[sum(a[i][k] * b[k][j] for k in range(self.ncols))
                      for j in range(other.ncols)]
                     for i in range(self.nrows)],
                    ncols=other.ncols)
        return Matrix(
            [[sum((self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)), Fraction(0))
              for j in range(other.ncols)]
             for i in range(self.nrows)],
            ncols=other.ncols)

    def stack(self, other: "Matrix") -> "Matrix":
        """Vertical concatenation."""
        if self.ncols != other.ncols:
            raise ValueError("column mismatch in stack")
        return Matrix(self.rows + other.rows, ncols=self.ncols)

    # -- elimination ----------------------------------------------------------

    def _rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices).

        Dispatches to the fraction-free Bareiss path for all-integer
        matrices.  The RREF of a matrix is unique, so both paths return
        bit-identical results.
        """
        ints = self.integer_rows() if _INTEGER_FAST_PATH else None
        if ints is not None:
            return _rref_bareiss(ints, self.ncols)
        return self._rref_fraction()

    def _rref_fraction(self) -> tuple[list[list[Fraction]], list[int]]:
        """The reference Gauss-Jordan elimination over Fractions (the seed
        algorithm, exercised directly under :func:`fraction_elimination`)."""
        rows = [list(row) for row in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = rows[r][c]
            rows[r] = [x / inv for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != 0:
                    factor = rows[i][c]
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows, pivots

    def rref(self) -> "Matrix":
        rows, _ = self._rref()
        return Matrix(rows, ncols=self.ncols)

    def rank(self) -> int:
        ints = self.integer_rows() if _INTEGER_FAST_PATH else None
        if ints is not None:
            # Rank needs only the forward (fraction-free) sweep.
            _, pivots = _bareiss_forward([list(row) for row in ints],
                                         self.ncols)
            return len(pivots)
        _, pivots = self._rref()
        return len(pivots)

    def nullspace(self) -> tuple[tuple[Fraction, ...], ...]:
        """A basis for ``{x : A x = 0}`` (possibly empty)."""
        rows, pivots = self._rref()
        free_cols = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for free in free_cols:
            vec = [Fraction(0)] * self.ncols
            vec[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][free]
            basis.append(tuple(vec))
        return tuple(basis)

    def solve(self, rhs: Sequence[Rational]) -> AffineSolution:
        """Solve ``A x = b`` over the rationals, returning the full set."""
        if len(rhs) != self.nrows:
            raise ValueError(f"rhs length {len(rhs)} != nrows {self.nrows}")
        augmented = Matrix([list(row) + [_frac(rhs[i])] for i, row in enumerate(self.rows)],
                           ncols=self.ncols + 1)
        rows, pivots = augmented._rref()
        if augmented.ncols - 1 in pivots:
            return NO_SOLUTION
        particular = [Fraction(0)] * self.ncols
        for r, pc in enumerate(pivots):
            particular[pc] = rows[r][-1]
        return AffineSolution(exists=True, particular=tuple(particular),
                              homogeneous=self.nullspace())

def _siv_form(int_rows: tuple[tuple[int, ...], ...] | None,
              ) -> SivRows | None:
    if int_rows is None:
        return None
    form: list[tuple[int, int] | None] = []
    drivers: set[int] = set()
    for row in int_rows:
        nonzero = [(col, x) for col, x in enumerate(row) if x]
        if len(nonzero) > 1 or (nonzero and nonzero[0][0] in drivers):
            return None
        if nonzero:
            drivers.add(nonzero[0][0])
            form.append(nonzero[0])
        else:
            form.append(None)
    return tuple(form)

def _bareiss_forward(rows: list[list[int]],
                     ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Bareiss forward elimination, in place.

    After step ``r`` with pivot ``p_r``, every entry below row ``r`` is the
    determinant of a minor of the original matrix divided by the previous
    pivot, so the ``//`` division is exact.  The update must touch *every*
    row below the pivot (even ones with a zero multiplier) to keep that
    invariant; skipping rows would leave stale denominators behind.
    Returns the echelon rows and the pivot column indices.
    """
    pivots: list[int] = []
    nrows = len(rows)
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        top = rows[r]
        for i in range(r + 1, nrows):
            low = rows[i]
            factor = low[c]
            rows[i] = [(pivot * low[j] - factor * top[j]) // prev
                       for j in range(ncols)]
        prev = pivot
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots

def _rref_bareiss(int_rows: Sequence[Sequence[int]],
                  ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """RREF of an all-integer matrix via Bareiss + back-substitution.

    The forward sweep stays in exact integer arithmetic; only the final
    normalization to reduced form produces Fractions.  Because the RREF is
    unique, the result is bit-identical to :meth:`Matrix._rref_fraction`.
    """
    echelon, pivots = _bareiss_forward([list(row) for row in int_rows],
                                       ncols)
    nrows = len(echelon)
    reduced: list[list[Fraction]] = [
        [Fraction(0)] * ncols for _ in range(nrows)]
    # Back-substitute from the last pivot row upward: normalize the pivot
    # to 1, then clear the pivot column in all rows above using the
    # already-reduced rows below.
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        pivot = echelon[r][pc]
        row = [Fraction(x, pivot) for x in echelon[r]]
        for rr in range(r + 1, len(pivots)):
            factor = row[pivots[rr]]
            if factor:
                lower = reduced[rr]
                row = [a - factor * b for a, b in zip(row, lower)]
                row[pivots[rr]] = Fraction(0)
        reduced[r] = row
    return reduced, pivots
