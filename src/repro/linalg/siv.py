"""Closed-form integer answers for SIV-separable subscript matrices (§3.5).

The paper's table algorithms assume SIV, separable subscripts: every row
of H has at most one non-zero (one induction variable per subscript
position) and so does every column (each loop index feeds at most one
position).  When the localized space L is moreover spanned by coordinate
axes -- the innermost loop, or the innermost loop plus one candidate --
``H x = Δ`` with x in L decouples into one test per row.  Row r either is
zero, and then Δ_r must be 0, or it is driven by one loop column d with
integer coefficient h, and then x_d = Δ_r / h, which must be an integer
when the reuse happens at whole iterations.  The kernel of H is spanned by
the axes of its zero columns, so ``ker H ∩ L`` is a set of axes too.

Each function below answers, with plain integers, one question the
reuse and unroll models otherwise put to exact rational elimination; the
parity suite checks every rule against that rational path.  Callers
obtain the inputs from :func:`closed_form` and keep the rational path for
the shapes it rejects (non-SIV H such as ``B(I+J)``, non-axis L).
"""

from __future__ import annotations

from fractions import Fraction

from repro.linalg.matrix import Matrix, SivRows
from repro.linalg.space import VectorSpace

def closed_form(matrix: Matrix, localized: VectorSpace,
                ) -> tuple[SivRows, tuple[int, ...]] | None:
    """(rows, axes of L) when the closed form covers the input, else None.

    The choice depends only on the shapes of H and L.
    """
    rows = matrix.siv_rows()
    if rows is None:
        return None
    axes = localized.axes()
    if axes is None:
        return None
    return rows, axes

def _drivers(rows: SivRows, skip_first: bool = False) -> set[int]:
    return {entry[0] for entry in rows[1 if skip_first else 0:] if entry}

def solve_in_space(rows: SivRows, axes: tuple[int, ...], ncols: int,
                   delta: tuple[int, ...]) -> tuple[int, ...] | None:
    """The integer x in L with ``H x = delta``, zero off the driven axes,
    or None when none exists."""
    witness = [0] * ncols
    for entry, need in zip(rows, delta):
        if not need:
            continue
        if entry is None or entry[0] not in axes:
            return None
        col, coef = entry
        step, rem = divmod(need, coef)
        if rem:
            return None
        witness[col] = step
    return tuple(witness)

def spatial_related(rows: SivRows, axes: tuple[int, ...],
                    delta: tuple[int, ...], line_size: int | None) -> bool:
    """``H_S x = trunc(delta)`` has an integer solution in L and the
    smallest achievable first-dimension residual is below a line.

    Only row 0's driver moves the first dimension; when it lies in L the
    residual ``|Δ_0|`` folds onto the lattice ``|h_0| Z``.
    """
    for entry, need in zip(rows[1:], delta[1:]):
        if need and (entry is None or entry[0] not in axes
                     or need % entry[1]):
            return False
    if line_size is None:
        return True
    residual = abs(delta[0])
    head = rows[0]
    if head is not None and head[0] in axes:
        lattice = abs(head[1])
        folded = residual % lattice
        residual = min(folded, lattice - folded)
    return residual < line_size

def temporal_dim(rows: SivRows, axes: tuple[int, ...]) -> int:
    """dim(ker H ∩ L): the axes of L whose H column is zero."""
    driven = _drivers(rows)
    return sum(1 for axis in axes if axis not in driven)

def self_spatial(rows: SivRows, axes: tuple[int, ...]) -> bool:
    """ker H_S ∩ L ≠ 0: some axis of L has a zero column once row 0 is
    dropped."""
    driven = _drivers(rows, skip_first=True)
    return any(axis not in driven for axis in axes)

def merge_parts(rows: SivRows, axes: tuple[int, ...], dims: tuple[int, ...],
                delta: tuple[int, ...], spatial: bool,
                ) -> tuple[dict[int, int], dict[int, Fraction]] | None:
    """Solve ``[H e_dims | H e_L] [k; l] = delta`` row by row.

    Returns the copy-offset parts k (keyed by position in ``dims``) and the
    localized parts l (keyed by position in ``axes``, which is the basis
    order of L), or None when the system is inconsistent, k is not
    integral, or a driven unrolled dimension also lies in L (then k is not
    unique).  With ``spatial`` row 0 is dropped (H_S).
    """
    k_parts: dict[int, int] = {}
    l_parts: dict[int, Fraction] = {}
    for row_idx, (entry, need) in enumerate(zip(rows, delta)):
        if spatial and row_idx == 0:
            continue
        if entry is None:
            if need:
                return None
            continue
        col, coef = entry
        if col in dims:
            if col in axes:
                return None
            step, rem = divmod(need, coef)
            if rem:
                return None
            k_parts[dims.index(col)] = step
        elif col in axes:
            l_parts[axes.index(col)] = Fraction(need, coef)
        elif need:
            return None
    return k_parts, l_parts

# -- keyed location classes ---------------------------------------------------
#
# Under an axis-spanned L every pairwise reuse relation above is an "equal
# key" relation: each row of H either pins the copy offset of one unrolled
# dim, or folds modulo the lattice of an axis of L, or is fixed.  The keys
# below are the one implementation shared by the unroll tables
# (:func:`repro.unroll.streams.keyed_counts`) and the locality scores
# (:func:`repro.reuse.locality.loop_locality_scores`); docs/ALGORITHM.md
# proves that the classes are the union-find components.

def linear_keys(rows: SivRows, axes: tuple[int, ...], pos: dict[int, int],
                sizes: tuple[int, ...], consts: list[tuple[int, ...]],
                first: int = 0) -> tuple[list[int], list[int]]:
    """Integer class keys of every copy ``i@b`` of a set's members over the
    box of ``sizes``: ``bases[i] + sum(strides[p] * b[p])``.

    Row r >= ``first`` keys a copy on ``c_r mod |h|`` when an axis of L
    drives it (checked first), on ``c_r + h * b[p]`` when the unrolled dim
    at reduced position ``p = pos[col]`` drives it, and on ``c_r``
    otherwise.  Each row's value, less its least value over the members
    and the box, is one digit of a mixed-radix integer, so two copies get
    equal keys exactly when every row's value agrees; rows whose value
    never varies are skipped.
    """
    bases = [0] * len(consts)
    strides = [0] * len(sizes)
    radix = 1
    for r in range(first, len(rows)):
        col, coef = rows[r] or (None, 0)
        if col in axes:
            lattice = abs(coef)
            if lattice == 1:
                continue
            bases = [base + c[r] % lattice * radix
                     for base, c in zip(bases, consts)]
            radix *= lattice
            continue
        values = [c[r] for c in consts]
        lo, hi = min(values), max(values)
        p = pos.get(col)
        if p is not None:
            reach = coef * (sizes[p] - 1)
            lo += min(reach, 0)
            hi += max(reach, 0)
            strides[p] += coef * radix
        elif lo == hi:
            continue
        bases = [base + (value - lo) * radix
                 for base, value in zip(bases, values)]
        radix *= hi - lo + 1
    return bases, strides

def word_modulus(rows: SivRows, axes: tuple[int, ...]) -> int:
    """``|h_0|`` when row 0's driver lies in L, else 0.

    Then the contiguous words of a spatial class are residues modulo
    ``|h_0|`` on a circle: the localized motion slides every copy by
    multiples of ``|h_0|``, the fold of :func:`spatial_related`."""
    head = rows[0]
    return abs(head[1]) if head is not None and head[0] in axes else 0

def word_runs(words: list[int], line: int, modulus: int = 0) -> int:
    """Runs of the sorted distinct ``words`` of one spatial class: a gap
    of at least ``line`` splits a run.  With a ``modulus`` the words lie
    on a circle of that circumference, and the wrap-around gap from the
    last word to the first joins the outer runs when it is below a line
    -- the transitive closure of the pairwise circular-distance test."""
    runs = 1 + sum(1 for a, b in zip(words, words[1:]) if b - a >= line)
    if modulus and runs > 1 and words[0] + modulus - words[-1] < line:
        runs -= 1
    return runs

def group_counts(rows: SivRows, axes: tuple[int, ...],
                 consts: list[tuple[int, ...]],
                 line_size: int | None) -> tuple[int, int]:
    """(g_T, g_S) of a set's members under the axes of L: the number of
    temporal class keys, and the runs of contiguous words within each
    class keyed on rows >= 1 (one run per class when ``line_size`` is
    None).  Equal to the group-temporal and group-spatial partitions of
    :mod:`repro.reuse.group`."""
    if len(consts) == 1:
        return 1, 1
    temporal, _ = linear_keys(rows, axes, {}, (), consts)
    spatial, _ = linear_keys(rows, axes, {}, (), consts, first=1)
    if line_size is None:
        return len(set(temporal)), len(set(spatial))
    modulus = word_modulus(rows, axes)
    words: dict[int, set[int]] = {}
    for key, c in zip(spatial, consts):
        words.setdefault(key, set()).add(c[0] % modulus if modulus else c[0])
    return len(set(temporal)), sum(word_runs(sorted(ws), line_size, modulus)
                                   for ws in words.values())
