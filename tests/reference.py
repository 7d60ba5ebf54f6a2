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
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest import mock

import repro.unroll.optimize
from repro.linalg import Matrix, siv
from repro.reuse.locality import pairwise_locality_scores

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
