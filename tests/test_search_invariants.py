"""The invariant the pruned search relies on, and the search against an
exhaustive scan.

:func:`repro.unroll.optimize.search_space` skips every vector that
componentwise dominates a register-infeasible one.  That is exact only if
register pressure never decreases along an unrolled dimension, so this
checks ``tables.point(u).registers`` at every box point of the Table-2
kernels (both machines, bounds 4 and 8) and of ten adversarial nests,
and compares the search with a plain scan over ``tables.all_points()``.
"""

import random

import pytest

from repro.balance import objective
from repro.kernels import all_kernels
from repro.machine.presets import dec_alpha, future_wide
from repro.unroll.optimize import choose_unroll, search_space
from repro.unroll.space import body_copies

from tests.test_fuzz_agreement import adversarial_nest

BOUNDS = (4, 8)

def assert_registers_monotone(tables):
    space = tables.space
    for u in space:
        registers = tables.point(u).registers
        for dim, bound in zip(space.dims, space.bounds):
            if u[dim] < bound:
                step = tuple(x + (i == dim) for i, x in enumerate(u))
                assert tables.point(step).registers >= registers, (u, dim)

def exhaustive_choice(tables, machine):
    """The minimum search key over every register-feasible box point."""
    keys = [(objective(p, machine), body_copies(p.u), p.u)
            for p in tables.all_points() if p.registers <= machine.registers]
    if not keys:
        return tuple(0 for _ in range(tables.nest.depth)), False
    return min(keys)[2], True

def check(nest, machine, bound):
    result = choose_unroll(nest, machine, bound=bound)
    assert_registers_monotone(result.tables)
    expected = exhaustive_choice(result.tables, machine)
    assert search_space(result.tables, machine) == expected
    assert (result.unroll, result.feasible) == expected

@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("machine", [dec_alpha(), future_wide()],
                         ids=["dec_alpha", "future_wide"])
def test_table2_kernels(machine, bound):
    for kernel in all_kernels():
        check(kernel.nest, machine, bound)

@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", range(10))
def test_adversarial_nests(seed, bound):
    nest = adversarial_nest(random.Random(5000 + seed), f"invariant{seed}")
    check(nest, dec_alpha(), bound)
