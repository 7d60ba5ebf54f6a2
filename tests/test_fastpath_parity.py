"""Parity fuzz for the cold-path integer algorithms against the rational
references.

Three layers, each comparing an optimized algorithm to its reference on
randomized inputs:

* Bareiss (fraction-free) elimination vs Fraction Gauss-Jordan -- rank,
  nullspace and solve must be bit-identical on integer and rational
  matrices (the RREF of a matrix is unique, so they must agree exactly).
* The dense-count ``box_sum`` index vs the paper's ``Sum`` (a scan over
  the per-offset increments of one difference pass) on random count
  tables, including negative increments and queries outside the box.
* End-to-end ``choose_unroll`` and ``build_tables``: the integer paths
  (Bareiss, the closed-form SIV kernel, keyed table and locality counts)
  vs the same calls under :func:`tests.reference.rational_reference`
  (Fraction elimination, the rational solvers, union-find table counts,
  pairwise locality scores and the Fraction search of
  :func:`tests.reference.reference_search`) on the whole kernel corpus,
  scalar and vectorized, and on randomized nests.

Together with the per-case loops below, well over 1000 randomized
matrices/tables/nests are exercised.
"""

import random
from fractions import Fraction

import pytest

from repro.kernels import all_kernels
from repro.linalg import Matrix
from repro.machine.presets import dec_alpha, future_wide
from repro.unroll.optimize import choose_unroll
from repro.unroll.space import UnrollSpace
from repro.unroll.tables import OffsetTable, build_tables

from tests.reference import count_increments, paper_sum, rational_reference
from tests.test_fuzz_agreement import adversarial_nest

def random_matrix(rng: random.Random, integral: bool) -> Matrix:
    nrows = rng.randint(1, 5)
    ncols = rng.randint(1, 5)
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            value = rng.choice([0, 0, 0, 1, -1, 2, -2, 3, 5, -7])
            if not integral and rng.random() < 0.3:
                value = Fraction(value, rng.choice([2, 3, 4]))
            row.append(value)
        rows.append(row)
    return Matrix(rows)

@pytest.mark.parametrize("integral", [True, False])
def test_bareiss_matches_fraction_elimination(integral):
    rng = random.Random(42 if integral else 43)
    for case in range(400):
        m = random_matrix(rng, integral)
        rhs = [rng.randint(-4, 4) for _ in range(m.nrows)]
        fast_rank = m.rank()
        fast_null = m.nullspace()
        fast_sol = m.solve(rhs)
        # Fresh (uncached) equivalent matrix for the reference pass.
        ref_m = Matrix([list(row) for row in m.rows])
        with rational_reference():
            assert ref_m.rank() == fast_rank, case
            assert ref_m.nullspace() == fast_null, case
            ref_sol = ref_m.solve(rhs)
        assert bool(ref_sol) == bool(fast_sol), case
        if fast_sol:
            assert ref_sol.particular == fast_sol.particular, case
            assert ref_sol.homogeneous == fast_sol.homogeneous, case

def test_box_sum_matches_scan():
    rng = random.Random(7)
    for case in range(300):
        ndims = rng.randint(0, 3)
        dims = tuple(range(ndims))
        bounds = tuple(rng.randint(0, 3) for _ in range(ndims))
        size = 1
        for b in bounds:
            size *= b + 1
        counts = [rng.randint(-6, 6) for _ in range(size)]
        table = OffsetTable(dims, bounds, counts)
        increments = count_increments(counts, bounds)
        for _ in range(8):
            query = tuple(rng.randint(-1, b + 2) for b in bounds)
            assert table.box_sum(query) == paper_sum(increments, query), \
                (case, query)

def _reference_choose(nest, machine, bound, **options):
    with rational_reference():
        return choose_unroll(nest, machine, bound=bound, **options)

@pytest.mark.parametrize("machine", [dec_alpha(), future_wide()],
                         ids=["dec_alpha", "future_wide"])
def test_corpus_parity(machine):
    for kernel in all_kernels():
        fast = choose_unroll(kernel.nest, machine, bound=4)
        ref = _reference_choose(kernel.nest, machine, bound=4)
        assert fast.unroll == ref.unroll, kernel.name
        assert fast.objective == ref.objective, kernel.name
        assert fast.breakdown == ref.breakdown, kernel.name

def test_vectorized_corpus_parity():
    """The ``vectorize=True`` shortlist comes from the same ranking: the
    integer keys and the Fraction scan re-rank to the same vector."""
    machine = future_wide()
    for kernel in all_kernels():
        fast = choose_unroll(kernel.nest, machine, bound=4, vectorize=True)
        ref = _reference_choose(kernel.nest, machine, bound=4,
                                vectorize=True)
        assert fast.unroll == ref.unroll, kernel.name
        assert fast.objective == ref.objective, kernel.name

@pytest.mark.parametrize("seed", range(10))
def test_randomized_nest_parity(seed):
    rng = random.Random(5000 + seed)
    machine = dec_alpha()
    nest = adversarial_nest(rng, f"parity{seed}")
    fast = choose_unroll(nest, machine, bound=3)
    ref = _reference_choose(nest, machine, bound=3)
    assert fast.unroll == ref.unroll, seed
    assert fast.objective == ref.objective, seed
    assert fast.breakdown == ref.breakdown, seed

@pytest.mark.parametrize("seed", range(6))
def test_randomized_tables_parity(seed):
    """Integer and rational table constructions agree point-by-point."""
    rng = random.Random(9000 + seed)
    nest = adversarial_nest(rng, f"tables{seed}")
    space = UnrollSpace(3, (0, 1), (2, 2))
    fast = build_tables(nest, space, line_size=4, trip=100)
    with rational_reference():
        ref = build_tables(nest, space, line_size=4, trip=100)
    for u in space:
        a, b = fast.point(u), ref.point(u)
        for field in ("gts", "gss", "memory_ops", "registers",
                      "cache_cost", "flops"):
            assert getattr(a, field) == getattr(b, field), (seed, u, field)
