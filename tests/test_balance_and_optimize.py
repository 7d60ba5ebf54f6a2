"""Balance model and optimizer tests, anchored on the paper's worked
introduction example (section 3.3)."""

import sys
from fractions import Fraction

import pytest

from repro.balance import estimated_cycles, loop_balance, objective
from repro.baselines.brute_force import brute_force_choose, measure_unrolled
from repro.ir.builder import NestBuilder
from repro.kernels import all_kernels, kernel_by_name
from repro.machine import MachineModel, dec_alpha, hp_pa_risc
from repro.reuse import ugs as ugs_module
from repro.reuse.locality import loop_locality_scores
from repro.unroll.optimize import choose_unroll, select_candidate_loops
from repro.unroll.safety import safe_unroll_bounds
from repro.unroll.space import UnrollSpace

def intro_nest():
    b = NestBuilder("intro")
    J, I = b.loops(("J", 0, "N"), ("I", 0, "M"))
    b.assign(b.ref("A", J), b.ref("A", J) + b.ref("B", I))
    return b.build()

def machine_beta_half() -> MachineModel:
    """A machine with beta_M = 0.5 (two flops per memory op)."""
    return MachineModel(
        name="beta-half", mem_issue=Fraction(1), fp_issue=Fraction(2),
        registers=32, cache_size_words=1024, cache_line_words=4,
        cache_assoc=1, miss_penalty=0)

class TestPaperIntroNumbers:
    def test_original_balance_is_one(self):
        """'The original loop has one fp op and one memory reference ...
        giving a balance of 1.'"""
        point = measure_unrolled(intro_nest(), (0, 0), line_size=4)
        assert point.memory_ops == 1
        assert point.flops == 1

    def test_unrolled_balance_is_half(self):
        """'After applying unroll-and-jam, the loop has two fp ops and one
        memory reference ... a balance of 0.5.'"""
        point = measure_unrolled(intro_nest(), (1, 0), line_size=4)
        assert point.memory_ops == 1
        assert point.flops == 2

    def test_optimizer_picks_unroll_on_beta_half_machine(self):
        """'On a machine with beta_M = 0.5, the second loop performs
        better': the optimizer must unroll J (at least once)."""
        result = choose_unroll(intro_nest(), machine_beta_half(), bound=4)
        assert result.unroll[0] >= 1
        assert result.breakdown.balance <= Fraction(1, 2) * Fraction(2)

    def test_register_pressure_grows_with_unroll(self):
        tables = choose_unroll(intro_nest(), machine_beta_half(),
                               bound=6).tables
        space = tables.space
        regs = [tables.point(space.embed((k,))).registers for k in range(7)]
        assert regs == sorted(regs)
        assert regs[6] > regs[0]

class TestBalanceFormula:
    def test_estimated_cycles_floor_one(self):
        m = dec_alpha()
        assert estimated_cycles(Fraction(0), Fraction(0), m) == 1

    def test_no_cache_balance_is_m_over_f(self):
        point = measure_unrolled(intro_nest(), (0, 0), line_size=4)
        breakdown = loop_balance(point, dec_alpha(), include_cache=False)
        assert breakdown.balance == Fraction(point.memory_ops) / point.flops
        assert breakdown.miss_term == 0

    def test_cache_term_adds_miss_cost(self):
        point = measure_unrolled(intro_nest(), (0, 0), line_size=4)
        with_cache = loop_balance(point, dec_alpha(), include_cache=True)
        without = loop_balance(point, dec_alpha(), include_cache=False)
        assert with_cache.balance > without.balance

    def test_prefetch_bandwidth_shrinks_miss_term(self):
        point = measure_unrolled(intro_nest(), (0, 0), line_size=4)
        none = loop_balance(point, dec_alpha(), include_cache=True)
        some = loop_balance(point, dec_alpha().with_prefetch(Fraction(1, 2)),
                            include_cache=True)
        full = loop_balance(point, dec_alpha().with_prefetch(Fraction(4)),
                            include_cache=True)
        assert none.miss_term >= some.miss_term >= full.miss_term
        assert full.miss_term == 0

    def test_objective_zero_at_machine_balance(self):
        m = machine_beta_half()
        point = measure_unrolled(intro_nest(), (1, 0), line_size=4)
        # balance = 1/2 exactly matches beta_M = 1/2 when cache is ignored
        assert objective(point, m, include_cache=False) == 0

class TestOptimizer:
    def test_candidate_selection_prefers_locality(self):
        nest = intro_nest()
        safety = safe_unroll_bounds(nest)
        chosen = select_candidate_loops(nest, safety, max_loops=2,
                                        line_size=4)
        assert 0 in chosen

    def test_register_constraint_limits_unroll(self):
        tiny = machine_beta_half().with_registers(4)
        big = machine_beta_half().with_registers(64)
        r_tiny = choose_unroll(intro_nest(), tiny, bound=8)
        r_big = choose_unroll(intro_nest(), big, bound=8)
        assert r_tiny.tables.point(r_tiny.unroll).registers <= 4
        assert r_tiny.unroll[0] <= r_big.unroll[0]

    def test_matches_brute_force_objective(self):
        """Section 5.3 parity: table search and exhaustive re-unrolling
        reach the same objective value."""
        b = NestBuilder("mm")
        J, I, K = b.loops(("J", 0, "N"), ("I", 0, "N"), ("K", 0, "N"))
        b.assign(b.ref("C", I, J),
                 b.ref("C", I, J) + b.ref("A", I, K) * b.ref("B", K, J))
        nest = b.build()
        m = dec_alpha()
        table = choose_unroll(nest, m, bound=3)
        brute = brute_force_choose(nest, m, table.space)
        assert table.objective == brute.objective
        assert table.unroll == brute.unroll

    def test_depth_one_nest_graceful(self):
        b = NestBuilder("one")
        I = b.loop("I", 0, "N")
        b.assign(b.ref("A", I), b.ref("B", I) + 1.0)
        result = choose_unroll(b.build(), dec_alpha(), bound=4)
        assert result.unroll == (0,)

    def test_unsafe_loop_not_unrolled(self):
        b = NestBuilder("skew")
        I, J = b.loops(("I", 1, "N"), ("J", 0, "N"))
        b.assign(b.ref("A", I, J), b.ref("A", I - 1, J + 1) + 1.0)
        result = choose_unroll(b.build(), dec_alpha(), bound=4)
        assert result.unroll == (0, 0)

    def test_feasible_flag(self):
        result = choose_unroll(intro_nest(), dec_alpha(), bound=4)
        assert result.feasible

    def test_one_partition_per_direct_call(self, monkeypatch):
        """Without ``ugs`` or ``scores``, the locality scores and the
        tables share one UGS partition."""
        original = ugs_module.partition_ugs
        calls = []

        def counting(nest):
            calls.append(nest.name)
            return original(nest)

        for module in list(sys.modules.values()):
            if getattr(module, "partition_ugs", None) is original:
                monkeypatch.setattr(module, "partition_ugs", counting)
        choose_unroll(kernel_by_name("jacobi").nest, dec_alpha())
        assert calls == ["jacobi"]

    def test_shared_partition_keeps_table2_decisions(self):
        """Scores computed separately (the path before the partition was
        shared) pick the same vector on every Table 2 kernel."""
        m = dec_alpha()
        for kernel in all_kernels():
            shared = choose_unroll(kernel.nest, m)
            separate = choose_unroll(
                kernel.nest, m, scores=loop_locality_scores(
                    kernel.nest, line_size=m.cache_line_words))
            assert shared.unroll == separate.unroll, kernel.name
            assert shared.objective == separate.objective, kernel.name
            assert shared.feasible == separate.feasible, kernel.name

class TestMachineModel:
    def test_balance_property(self):
        assert machine_beta_half().balance == Fraction(1, 2)
        assert dec_alpha().balance == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel("bad", Fraction(0), Fraction(1), 32, 1024, 4, 1, 10)
        with pytest.raises(ValueError):
            MachineModel("bad", Fraction(1), Fraction(1), 32, 1000, 3, 1, 10)

    def test_with_registers_and_prefetch(self):
        m = dec_alpha().with_registers(64).with_prefetch(Fraction(1, 4))
        assert m.registers == 64
        assert m.prefetch_bandwidth == Fraction(1, 4)

    def test_with_helpers_preserve_every_other_field(self):
        # Regression: the derived machines used to rebuild the dataclass
        # by hand and silently reset fp_latency/divide_latency/
        # load_latency (and would have dropped the vector fields too).
        import dataclasses

        custom = dataclasses.replace(
            dec_alpha(), fp_latency=9, divide_latency=40, load_latency=5,
            vector_width_words=4, gather_penalty=7)
        for derived in (custom.with_registers(64),
                        custom.with_prefetch(Fraction(1, 3))):
            for field in dataclasses.fields(MachineModel):
                if field.name in ("name", "registers",
                                  "prefetch_bandwidth"):
                    continue
                assert getattr(derived, field.name) \
                    == getattr(custom, field.name), field.name

    def test_presets_contrast(self):
        """Figure 8 vs 9 premise: the Alpha misses hurt much more."""
        alpha, pa = dec_alpha(), hp_pa_risc()
        assert alpha.cache_size_words < pa.cache_size_words
        assert alpha.miss_penalty > pa.miss_penalty
