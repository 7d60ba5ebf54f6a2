"""The invariant the pruned search relies on, and the integer ranking
against the Fraction objective.

:meth:`repro.unroll.optimize.BoxRanking.keys` skips every vector that
componentwise dominates a register-infeasible one.  That is exact only if
register pressure never decreases along an unrolled dimension, so this
checks ``tables.point(u).registers`` at every box point of the Table-2
kernels and of ten adversarial nests, on every preset machine, at bounds
4 and 8, with the binary miss charge, without the cache term and with the
set-associative miss model.  Against a plain scan over
``tables.all_points()`` ranked by :func:`repro.balance.objective`:

* the integer keys sort the feasible vectors in the Fraction order (the
  ``vectorize=True`` shortlist is a prefix of that order), and so does
  the pruned Fraction scan :func:`tests.reference.reference_search`;
* the search picks the first of them;
* the objective and the unserviced-miss cycles the ranking reports at
  every point equal the Fraction balance terms there, and
  ``result.objective`` is ``|beta_L - beta_M|`` at the chosen vector.
"""

import random

import pytest

from repro.balance import loop_balance, objective
from repro.engine import AnalysisEngine
from repro.kernels import all_kernels
from repro.machine.presets import (
    dec_alpha,
    future_wide,
    generous_register_machine,
    hp_pa_risc,
    mips_r10k,
    prefetching_machine,
)
from repro.unroll.optimize import BoxRanking, search_space
from repro.unroll.space import body_copies

from tests.reference import reference_search
from tests.test_fuzz_agreement import adversarial_nest

BOUNDS = (4, 8)

MACHINES = {
    "dec_alpha": dec_alpha(),
    "hp_pa_risc": hp_pa_risc(),
    "prefetching": prefetching_machine(),
    "generous_registers": generous_register_machine(),
    "mips_r10k": mips_r10k(),
    "future_wide": future_wide(),
    "dec_alpha_r8": dec_alpha().with_registers(8),
}

#: name -> (include_cache, cache_model)
MODELS = {"binary": (True, "binary"), "no_cache": (False, "binary"),
          "assoc": (True, "assoc")}

@pytest.fixture(scope="module")
def engine():
    return AnalysisEngine()

def assert_registers_monotone(tables):
    space = tables.space
    for u in space:
        registers = tables.point(u).registers
        for dim, bound in zip(space.dims, space.bounds):
            if u[dim] < bound:
                step = tuple(x + (i == dim) for i, x in enumerate(u))
                assert tables.point(step).registers >= registers, (u, dim)

def check(engine, nest, machine, bound, model):
    include_cache, cache_model = MODELS[model]
    result = engine.optimize(nest, machine, bound=bound,
                             include_cache=include_cache,
                             cache_model=cache_model)
    tables, miss_model = result.tables, result.miss_model
    assert_registers_monotone(tables)
    ranking = BoxRanking(tables, machine, include_cache, miss_model)
    exhaustive = sorted(
        (objective(p, machine, include_cache, miss_model), body_copies(p.u),
         p.u) for p in tables.all_points()
        if p.registers <= machine.registers)
    order = [u for *_, u in exhaustive]
    assert [u for *_, u in sorted(ranking.keys())] == order
    assert [u for *_, u in sorted(reference_search(ranking))] == order
    expected = ((order[0], True) if order
                else (tuple(0 for _ in range(nest.depth)), False))
    assert search_space(ranking) == expected
    assert (result.unroll, result.feasible) == expected
    for point in tables.all_points():
        breakdown = loop_balance(point, machine, include_cache, miss_model)
        assert ranking.objective(point.u) == \
            abs(breakdown.balance - machine.balance), point.u
        assert ranking.miss_cycles(point.u) == \
            breakdown.unserviced * machine.miss_penalty, point.u
    chosen = loop_balance(tables.point(result.unroll), machine,
                          include_cache, miss_model)
    assert result.objective == abs(chosen.balance - machine.balance)
    assert result.breakdown == chosen

@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("machine", MACHINES)
def test_table2_kernels(engine, machine, bound):
    for kernel in all_kernels():
        for model in MODELS:
            check(engine, kernel.nest, MACHINES[machine], bound, model)

@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", range(10))
def test_adversarial_nests(engine, seed, bound):
    nest = adversarial_nest(random.Random(5000 + seed), f"invariant{seed}")
    for machine in MACHINES.values():
        for model in MODELS:
            check(engine, nest, machine, bound, model)
