"""The rational reference path, for parity tests.

Production code always takes the integer paths: Bareiss elimination for
integral matrices, the closed-form SIV kernel of
:mod:`repro.linalg.siv`, keyed location classes for the unroll tables and
keyed class counts for the locality scores.  :func:`rational_reference`
swaps each of them for the rational algorithm it must agree with, so a
test can run the same public entry point both ways and compare:

* ``siv.closed_form`` answers None, so group reuse, self reuse, merges
  and the unroll tables take the rational solvers and the union-find
  counts of :func:`repro.unroll.tables.counted_tables`;
* :func:`repro.unroll.optimize.choose_unroll` scores loops with
  :func:`repro.reuse.locality.pairwise_locality_scores`;
* ``Matrix._rref`` and ``Matrix.rank`` run Gauss-Jordan elimination over
  Fractions (``Matrix._rref_fraction``).

``Matrix.siv_rows`` is left alone on purpose: the conservative-set test
(``streams.is_analyzable``) reads it, so hiding it would send every set
down the conservative path and change the decisions.

:func:`count_increments` and :func:`paper_sum` are the paper's table form
(per-offset increments and the ``Sum`` scan of Figure 2), the reference
the dense count tables of :class:`repro.unroll.tables.OffsetTable` are
compared against.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from itertools import product
from typing import Iterator
from unittest import mock

import repro.unroll.optimize
from repro.linalg import Matrix, siv
from repro.reuse.locality import pairwise_locality_scores

def count_increments(counts: list[int], bounds: tuple[int, ...]
                     ) -> dict[tuple[int, ...], int]:
    """The paper's per-offset increments of a row-major count table over
    the box ``0..bounds[k]``: the inclusion-exclusion difference over each
    point's lower neighbours (a bijection with the counts)."""
    box = list(product(*(range(b + 1) for b in bounds)))
    value = dict(zip(box, counts))
    increments = {}
    for point in box:
        total = 0
        for signs in product((0, 1), repeat=len(bounds)):
            lower = tuple(p - s for p, s in zip(point, signs))
            if min(lower, default=0) >= 0:
                total += (-1) ** sum(signs) * value[lower]
        increments[point] = total
    return increments

def paper_sum(increments: dict[tuple[int, ...], int],
              query: tuple[int, ...]) -> int:
    """The paper's Sum (Figure 2): every increment at an offset <= query."""
    return sum(inc for offset, inc in increments.items()
               if all(o <= q for o, q in zip(offset, query)))

def _fraction_rank(matrix: Matrix) -> int:
    _, pivots = matrix._rref_fraction()
    return len(pivots)

@contextmanager
def rational_reference() -> Iterator[None]:
    """Run the block on the rational reference algorithms."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            siv, "closed_form", lambda matrix, localized: None))
        stack.enter_context(mock.patch.object(
            repro.unroll.optimize, "loop_locality_scores",
            pairwise_locality_scores))
        stack.enter_context(mock.patch.object(
            Matrix, "_rref", Matrix._rref_fraction))
        stack.enter_context(mock.patch.object(
            Matrix, "rank", _fraction_rank))
        yield
