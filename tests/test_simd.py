"""repro.simd: statement dependence graphs, SLP packing, the lane cost
model, packed execution, and the vectorized search wiring.

The load-bearing invariant (also enforced at corpus scale by
``benchmarks/bench_simd.py``): ``run_packed`` is bit-identical to the
scalar ``run_unrolled`` oracle for every nest and every unroll vector,
because pack lanes are pairwise loop-independent and the lockstep
schedule respects every loop-independent statement edge.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.ir.builder import NestBuilder
from repro.ir.interp import InterpreterError, run_unrolled
from repro.ir.packed import run_packed
from repro.machine.model import MachineModel
from repro.machine.presets import dec_alpha, future_wide, mips_r10k
from repro.simd import (
    PackSet,
    SimdReport,
    base_temp_names,
    build_packs,
    build_statement_graph,
    estimate_packs,
    format_report,
    ref_lane_class,
    schedule_packs,
    statement_shape,
    vectorize_jammed,
    vectorize_nest,
)
from repro.simd.depgraph import StatementDep, StatementGraph
from repro.simd.packer import MAX_PACK_STATEMENTS, Pack
from repro.unroll.optimize import choose_unroll
from repro.unroll.transform import unroll_and_jam

def jacobi_like():
    b = NestBuilder("jac")
    I, J = b.loops(("I", 1, 10), ("J", 1, 10))
    b.assign(b.ref("A", I, J),
             (b.ref("B", I - 1, J) + b.ref("B", I + 1, J)
              + b.ref("B", I, J - 1) + b.ref("B", I, J + 1)) * 0.25)
    return b.build()

def temp_square():
    # t = B(J, I); A(I, J) = t * t -- the defs are stride (not unit) in
    # I, so they can only be packed by use-def extension.
    b = NestBuilder("tsq")
    I, J = b.loops(("I", 0, 7), ("J", 0, 7))
    b.assign(b.scalar("t"), b.ref("B", J, I))
    b.assign(b.ref("A", I, J), b.scalar("t") * b.scalar("t"))
    return b.build()

# -- statement dependence graph ------------------------------------------------

class TestStatementGraph:
    def test_cross_copy_dep_becomes_loop_independent(self):
        # A(I,J) = A(I+1,J): copy 0 reads what copy 1 writes, so the
        # original carried dependence is loop-independent after jamming.
        b = NestBuilder("anti")
        I, J = b.loops(("I", 0, 9), ("J", 0, 9))
        b.assign(b.ref("A", I, J), b.ref("A", I + 1, J) + 1.0)
        jammed = unroll_and_jam(b.build(), (1, 0)).main
        graph = build_statement_graph(jammed)
        assert graph.n == 2
        assert not graph.independent(0, 1)
        kinds = {(d.src, d.dst, d.kind) for d in graph.deps
                 if d.loop_independent}
        assert (0, 1, "anti") in kinds

    def test_independent_copies_have_no_li_edges(self):
        jammed = unroll_and_jam(jacobi_like(), (3, 0)).main
        graph = build_statement_graph(jammed)
        assert graph.n == 4
        for i in range(4):
            for j in range(4):
                assert graph.independent(i, j) == (i != j)

    def test_carried_edges_are_tagged_not_constraining(self):
        # A(I,J) = A(I,J-1): carried by the (jammed) inner loop; the
        # copies remain lockstep-compatible.
        b = NestBuilder("carried")
        I, J = b.loops(("I", 0, 9), ("J", 1, 9))
        b.assign(b.ref("A", I, J), b.ref("A", I, J - 1) * 0.5)
        jammed = unroll_and_jam(b.build(), (1, 0)).main
        graph = build_statement_graph(jammed)
        carried = graph.carried()
        assert carried and all(d.level is not None for d in carried)
        assert any(d.level == 1 and d.kind == "flow" for d in carried)
        assert graph.independent(0, 1)

    def test_scalar_temp_edges(self):
        jammed = unroll_and_jam(temp_square(), (1, 0)).main
        graph = build_statement_graph(jammed)
        by_via = {}
        for d in graph.deps:
            by_via.setdefault(d.via, []).append(d)
        # t -> t*t flow inside each copy, for both the base name and the
        # renamed private copy.
        assert any(d.kind == "flow" and d.loop_independent
                   for d in by_via["t"])
        assert any(d.kind == "flow" and d.loop_independent
                   for d in by_via["t__I1"])

    def test_read_before_write_is_carried_flow(self):
        # s is read before its first write: the value arrives around the
        # innermost loop (the interpreter's shared-seed fallback).
        b = NestBuilder("rbw")
        I, J = b.loops(("I", 0, 5), ("J", 0, 5))
        b.assign(b.ref("A", I, J), b.scalar("s") + 1.0)
        b.assign(b.scalar("s"), b.ref("B", I, J))
        graph = build_statement_graph(unroll_and_jam(b.build(), (0, 0)).main)
        carried = [d for d in graph.deps if d.via == "s" and d.kind == "flow"
                   and d.level == 1]
        assert carried and carried[0].src == 1 and carried[0].dst == 0

# -- packer --------------------------------------------------------------------

class TestPacker:
    def test_base_temp_names_cover_every_copy(self):
        base = base_temp_names(temp_square(), (2, 0))
        assert base == {"t": "t", "t__I1": "t", "t__I2": "t"}

    def test_copies_are_isomorphic(self):
        jammed = unroll_and_jam(jacobi_like(), (2, 0)).main
        base = base_temp_names(jacobi_like(), (2, 0))
        shapes = {statement_shape(s, base) for s in jammed.body}
        assert len(shapes) == 1

    def test_ref_lane_classes(self):
        b = NestBuilder("cls")
        I, J = b.loops(("I", 0, 9), ("J", 0, 9))
        b.assign(b.ref("A", I, J), b.ref("B", I, J))
        refs_of = lambda u: tuple(
            s.rhs for s in unroll_and_jam(b.build(), u).main.body)
        assert ref_lane_class(refs_of((3, 0))) == ("unit", 1)

        b2 = NestBuilder("cls2")
        I, J = b2.loops(("I", 0, 9), ("J", 0, 9))
        b2.assign(b2.ref("A", I, J), b2.ref("B", J, I))
        packs = unroll_and_jam(b2.build(), (2, 0)).main.body
        # B(J, I): unrolling I moves the *second* subscript -> stride.
        assert ref_lane_class(tuple(s.rhs for s in packs))[0] == "stride"

        splat = (b.ref("C", J).node,) * 3
        assert ref_lane_class(splat) == ("splat", 0)

    def test_unit_stride_copies_pack(self):
        report = vectorize_nest(jacobi_like(), (3, 0), future_wide())
        assert report.packs == ((0, 1, 2, 3),)
        assert report.packed_fraction == 1.0

    def test_width_splits_long_runs(self):
        report = vectorize_nest(jacobi_like(), (7, 0), future_wide())
        assert report.packs == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_dependent_copies_do_not_pack(self):
        b = NestBuilder("dep")
        I, J = b.loops(("I", 0, 9), ("J", 0, 9))
        b.assign(b.ref("A", I, J), b.ref("A", I + 1, J) + 1.0)
        report = vectorize_nest(b.build(), (3, 0), future_wide())
        assert report.packs == ()

    def test_use_def_extension_pulls_strided_defs(self):
        report = vectorize_nest(temp_square(), (3, 0), future_wide())
        lanes = set(report.packs)
        # the A-store copies seed; the t-def copies arrive by extension
        assert len(lanes) == 2
        assert report.packed_fraction == 1.0

    def test_width_one_machine_packs_nothing(self):
        report = vectorize_nest(jacobi_like(), (3, 0), dec_alpha())
        assert report.packs == ()
        assert report.estimate.vector_cycles == report.estimate.scalar_cycles

    def test_oversized_body_is_not_packed(self):
        jammed = unroll_and_jam(jacobi_like(), (3, 0)).main
        graph = build_statement_graph(jammed)
        assert MAX_PACK_STATEMENTS == 512
        packs = build_packs(jammed, graph, width=4)
        assert len(packs) == 1
        # the same body reported oversized yields the empty set
        small = build_packs(jammed, graph, width=1)
        assert len(small) == 0

# -- schedule ------------------------------------------------------------------

class TestSchedule:
    def _four_stmt_graph(self, deps):
        b = NestBuilder("sched")
        I, J = b.loops(("I", 0, 3), ("J", 0, 3))
        for k in range(4):
            b.assign(b.ref("A", I + k, J), b.ref("B", I + k, J))
        nest = b.build()
        return StatementGraph(nest, tuple(
            StatementDep(s, d, "flow", None, "A") for s, d in deps))

    def test_textual_order_without_packs(self):
        graph = self._four_stmt_graph([(0, 1), (2, 3)])
        _, order = schedule_packs(graph, PackSet(()))
        assert order == ((0,), (1,), (2,), (3,))

    def test_pack_lanes_stay_grouped(self):
        graph = self._four_stmt_graph([])
        packset = PackSet((Pack((0, 2)), Pack((1, 3))))
        kept, order = schedule_packs(graph, packset)
        assert len(kept) == 2
        assert set(order) == {(0, 2), (1, 3)}

    def test_contracted_cycle_splits_a_pack(self):
        # The classic SLP counterexample: packs {0,2} and {1,3} with
        # edges 0->1 and 3->2 contract to a 2-cycle.
        graph = self._four_stmt_graph([(0, 1), (3, 2)])
        packset = PackSet((Pack((0, 2)), Pack((1, 3))))
        kept, order = schedule_packs(graph, packset)
        assert [p.lanes for p in kept] == [(1, 3)]
        assert order == ((0,), (1, 3), (2,))

    def test_schedule_respects_every_li_edge(self):
        graph = self._four_stmt_graph([(0, 3), (1, 2)])
        packset = PackSet((Pack((0, 1)),))
        _, order = schedule_packs(graph, packset)
        position = {}
        for g, group in enumerate(order):
            for stmt in group:
                position[stmt] = g
        for dep in graph.deps:
            assert position[dep.src] <= position[dep.dst]

# -- lane cost model -----------------------------------------------------------

class TestCostModel:
    def test_empty_packset_matches_scalar(self):
        jammed = unroll_and_jam(jacobi_like(), (1, 0)).main
        est = estimate_packs(jammed, PackSet(()), future_wide())
        assert est.vector_cycles == est.scalar_cycles
        assert est.overhead_cycles == 0

    def test_unit_stride_pack_collapses_memory(self):
        nest = jacobi_like()
        report = vectorize_nest(nest, (3, 0), future_wide())
        est = report.estimate
        # 4 copies x (4 loads + 1 store) scalar; packed: 4 unit lane
        # groups + 1 vector store.
        assert est.scalar_mem_ops == 20
        assert est.vector_mem_ops == 5
        assert est.improved
        assert est.speedup > 2

    def test_splat_and_gather_are_charged(self):
        machine = future_wide()
        b = NestBuilder("gather")
        I, J = b.loops(("I", 0, 9), ("J", 0, 9))
        b.assign(b.scalar("t"), b.ref("B", J, I))
        b.assign(b.ref("A", I, J), b.scalar("t") * b.ref("C", J))
        report = vectorize_nest(b.build(), (1, 0), machine)
        est = report.estimate
        # C(J) is a splat across lanes; B(J, I) in the extension pack is
        # a per-lane gather.
        assert est.overhead_cycles >= machine.splat_cost + machine.gather_penalty

    def test_miss_cycles_added_to_both_sides(self):
        jammed = unroll_and_jam(jacobi_like(), (3, 0)).main
        base = base_temp_names(jacobi_like(), (3, 0))
        graph = build_statement_graph(jammed)
        packs = build_packs(jammed, graph, 4, base)
        a = estimate_packs(jammed, packs, future_wide())
        m = estimate_packs(jammed, packs, future_wide(),
                           miss_cycles=Fraction(7))
        assert m.scalar_cycles - a.scalar_cycles == 7
        assert m.vector_cycles - a.vector_cycles == 7

    def test_report_dict_and_format(self):
        report = vectorize_nest(jacobi_like(), (3, 0), future_wide())
        doc = report.to_dict()
        assert doc["packs"] == [[0, 1, 2, 3]]
        assert doc["improved"] is True
        assert 0 < doc["packed_fraction"] <= 1
        text = format_report(report)
        assert "packs:" in text and "speedup:" in text

# -- packed execution ----------------------------------------------------------

def _run_both(nest, u, shapes, bindings=None, scalars=None, seed=0,
              width=4):
    rng = np.random.default_rng(seed)
    base = {n: rng.standard_normal(s) for n, s in shapes.items()}
    ref = {k: v.copy() for k, v in base.items()}
    got = {k: v.copy() for k, v in base.items()}
    run_unrolled(nest, u, bindings or {}, ref,
                 dict(scalars) if scalars else None)
    run_packed(nest, u, bindings or {}, got,
               dict(scalars) if scalars else None, width=width)
    return ref, got

class TestRunPacked:
    @pytest.mark.parametrize("u", [(0, 0), (1, 0), (3, 0), (5, 0)])
    def test_jacobi_parity(self, u):
        shapes = {"A": (12, 12), "B": (12, 12)}
        ref, got = _run_both(jacobi_like(), u, shapes)
        for name in shapes:
            assert np.array_equal(ref[name], got[name]), (name, u)

    @pytest.mark.parametrize("u", [(1, 0), (2, 0), (4, 0)])
    def test_scalar_temp_parity(self, u):
        shapes = {"A": (8, 8), "B": (8, 8)}
        ref, got = _run_both(temp_square(), u, shapes,
                             scalars={"t": 3.25})
        for name in shapes:
            assert np.array_equal(ref[name], got[name]), (name, u)

    def test_dependent_copies_parity(self):
        # packs rejected, but the jammed schedule must still match
        b = NestBuilder("dep")
        I, J = b.loops(("I", 0, 9), ("J", 0, 9))
        b.assign(b.ref("A", I, J), b.ref("A", I + 1, J) + 1.0)
        ref, got = _run_both(b.build(), (3, 0), {"A": (11, 11)})
        assert np.array_equal(ref["A"], got["A"])

    def test_width_one_degrades_to_jammed_order(self):
        ref, got = _run_both(jacobi_like(), (3, 0),
                             {"A": (12, 12), "B": (12, 12)}, width=1)
        assert np.array_equal(ref["A"], got["A"])

    def test_machine_supplies_width(self):
        nest = jacobi_like()
        rng = np.random.default_rng(3)
        base = {"A": rng.standard_normal((12, 12)),
                "B": rng.standard_normal((12, 12))}
        ref = {k: v.copy() for k, v in base.items()}
        got = {k: v.copy() for k, v in base.items()}
        run_unrolled(nest, (3, 0), {}, ref)
        run_packed(nest, (3, 0), {}, got, machine=future_wide())
        assert np.array_equal(ref["A"], got["A"])

    def test_validation_matches_run_unrolled(self):
        nest = jacobi_like()
        arrays = {"A": np.zeros((12, 12)), "B": np.zeros((12, 12))}
        with pytest.raises(InterpreterError):
            run_packed(nest, (0, 1), {}, arrays)
        with pytest.raises(InterpreterError):
            run_packed(nest, (0,), {}, arrays)
        with pytest.raises(InterpreterError):
            run_packed(nest, (-1, 0), {}, arrays)

# -- fuzzed corpus parity ------------------------------------------------------

def _fuzz_nest(rng: random.Random, name: str):
    """Random 2-3 deep nests with shifted reads, in-place updates and
    scalar temporaries -- everything the packed executor must survive."""
    depth = rng.choice([2, 2, 3])
    n = 7 if depth == 2 else 5
    b = NestBuilder(name)
    specs = [(nm, 2, 2 + n) for nm in ("I", "J", "K")[:depth]]
    idx = list(b.loops(*specs))
    arrays = ["A", "B", "C"]
    for s in range(rng.randint(1, 3)):
        use_temp = rng.random() < 0.4
        terms = []
        for _ in range(rng.randint(1, 3)):
            arr = rng.choice(arrays)
            perm = list(range(depth))
            if rng.random() < 0.3:
                rng.shuffle(perm)
            terms.append(b.ref(arr, *(idx[p] + rng.randint(-2, 2)
                                      for p in perm)))
        rhs = terms[0]
        for t in terms[1:]:
            rhs = rhs + t if rng.random() < 0.7 else rhs * t
        if use_temp:
            b.assign(b.scalar(f"t{s}"), rhs)
            rhs = b.scalar(f"t{s}") * 0.5
        w = rng.choice(arrays)
        b.assign(b.ref(w, *(iv + rng.randint(-1, 1) for iv in idx)), rhs)
    return b.build(), depth, n

NESTS_PER_CHUNK = 25

@pytest.mark.parametrize("chunk", range(20))
def test_fuzzed_packed_parity(chunk):
    """>= 500 fuzzed nests, several unrolls each: run_packed must be
    bit-identical to run_unrolled on every array."""
    rng = random.Random(20260 + chunk)
    for k in range(NESTS_PER_CHUNK):
        nest, depth, n = _fuzz_nest(rng, f"fuzz{chunk}_{k}")
        side = n + 7  # indices span [0, n+4] after offsets
        shape = (side,) * depth
        if depth == 2:
            unrolls = [(0, 0), (rng.randint(1, 3), 0)]
        else:
            unrolls = [(rng.randint(0, 2), rng.randint(0, 2), 0)]
        for u in unrolls:
            nprng = np.random.default_rng(1000 * chunk + k)
            base = {a: nprng.standard_normal(shape) for a in "ABC"}
            ref = {a: v.copy() for a, v in base.items()}
            got = {a: v.copy() for a, v in base.items()}
            run_unrolled(nest, u, {}, ref, {})
            run_packed(nest, u, {}, got, {}, width=4)
            for a in base:
                assert np.array_equal(ref[a], got[a]), (nest.name, u, a)

# -- vectorized search wiring --------------------------------------------------

class TestVectorizedSearch:
    def test_scalar_machine_falls_back_bit_identical(self):
        nest = jacobi_like()
        plain = choose_unroll(nest, dec_alpha(), bound=6)
        simd = choose_unroll(nest, dec_alpha(), bound=6, vectorize=True)
        assert (plain.unroll, plain.objective, plain.feasible) \
            == (simd.unroll, simd.objective, simd.feasible)

    def test_default_path_unchanged_by_flag(self):
        nest = jacobi_like()
        a = choose_unroll(nest, future_wide(), bound=6)
        b = choose_unroll(nest, future_wide(), bound=6, vectorize=False)
        assert (a.unroll, a.objective, a.feasible) \
            == (b.unroll, b.objective, b.feasible)

    def test_vectorized_objective_prefers_full_lanes(self):
        nest = jacobi_like()
        machine = future_wide()
        simd = choose_unroll(nest, machine, bound=8, vectorize=True)
        copies = simd.unroll[0] + 1
        assert copies % machine.vector_width_words == 0
        report = vectorize_nest(nest, simd.unroll, machine)
        assert report.estimate.improved

    def test_infeasible_space_returns_zero_vector(self):
        nest = jacobi_like()
        tiny = mips_r10k().with_registers(1)
        result = choose_unroll(nest, tiny, bound=6, vectorize=True)
        assert result.unroll == (0, 0)

    def test_mips_preset_has_lanes(self):
        assert mips_r10k().vector_width_words == 2
        assert future_wide().vector_width_words == 4
        assert future_wide().has_vector_unit
        assert not dec_alpha().has_vector_unit

# -- engine / api facade -------------------------------------------------------

class TestEngineAndApi:
    def test_engine_simd_report_memoized(self):
        from repro.engine import AnalysisEngine

        engine = AnalysisEngine()
        nest = jacobi_like()
        a = engine.simd_report(nest, future_wide(), (3, 0))
        b = engine.simd_report(nest, future_wide(), (3, 0))
        assert a is b
        assert engine.metrics.counter("cache.simd.hit") == 1
        assert engine.metrics.counter("cache.simd.miss") == 1

    def test_api_vectorize_returns_result_and_report(self):
        import repro

        result, report = repro.vectorize("jacobi", machine="future",
                                         bound=4)
        assert isinstance(report, SimdReport)
        assert report.unroll == result.unroll
        assert report.machine == "future-wide"

    def test_api_vectorize_explicit_unroll(self):
        import repro

        _, report = repro.vectorize("jacobi", machine="future",
                                    unroll=(3, 0), bound=4)
        assert report.unroll == (3, 0)
        assert report.packs
