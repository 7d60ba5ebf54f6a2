"""The switch between the optimized and the seed analysis algorithms.

The cold-path optimizations (summed-area tables, keyed location classes,
Bareiss elimination, the closed-form SIV-separable kernel of
:mod:`repro.linalg.siv`, pruned search) are exact: they
return bit-identical results to the original algorithms.  The parity fuzz
suite and the cold-analysis benchmark need to *run* those originals, so
every memo layer checks :func:`fast_enabled` and the
:func:`seed_algorithms` context manager flips the whole stack back to the
seed behaviour (including the Fraction elimination path of
:mod:`repro.linalg.matrix`).

Algorithm-level choices that live in signatures -- ``fast=False`` on
:func:`repro.unroll.tables.build_tables` and ``prune=False`` on
:func:`repro.unroll.optimize.search_space` -- are not global state and
must still be passed explicitly; :func:`seed_algorithms` only governs the
cross-cutting caches that have no per-call parameter.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_FAST = True

def fast_enabled() -> bool:
    """True when the optimized paths (and their memo layers) are active."""
    return _FAST

@contextmanager
def seed_algorithms() -> Iterator[None]:
    """Run the seed (pre-optimization) algorithms for the block: Fraction
    elimination, rational group-reuse and merge solves, union-find table
    counts."""
    from repro.linalg.matrix import fraction_elimination

    global _FAST
    previous = _FAST
    _FAST = False
    try:
        with fraction_elimination():
            yield
    finally:
        _FAST = previous
