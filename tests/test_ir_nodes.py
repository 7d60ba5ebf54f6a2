"""Tests for the IR node layer: subscripts, expressions, nests."""

import dataclasses

import pytest

from repro.ir.builder import NestBuilder
from repro.ir.nodes import (
    ArrayRef,
    BinOp,
    Bound,
    Const,
    ScalarVar,
    Subscript,
    expr_flops,
    intern_nest,
    shift_expr,
)

def simple_nest():
    b = NestBuilder("axpy2d")
    I, J = b.loops(("I", 0, "N"), ("J", 0, "M"))
    b.assign(b.ref("A", I, J),
             b.ref("A", I, J) + b.scalar("alpha") * b.ref("B", I, J + 1))
    return b.build()

class TestSubscript:
    def test_of_normalizes_and_drops_zero_coeffs(self):
        s = Subscript.of({"I": 1, "J": 0}, const=2)
        assert s.loop_coeffs == (("I", 1),)
        assert s.const == 2

    def test_coeff_lookup(self):
        s = Subscript.of({"I": 3})
        assert s.coeff("I") == 3
        assert s.coeff("J") == 0

    def test_shift(self):
        s = Subscript.of({"I": 2}, const=1)
        assert s.shifted({"I": 3}).const == 7
        assert s.shifted({"J": 3}) is s

    def test_evaluate_with_params(self):
        s = Subscript.of({"I": 1}, const=-1, param_coeffs={"N": 1})
        assert s.evaluate({"I": 4, "N": 10}) == 13

    def test_pretty(self):
        assert Subscript.of({"I": 1}, const=1).pretty() == "I+1"
        assert Subscript.of({"I": -1}).pretty() == "-I"
        assert Subscript.of({}, const=0).pretty() == "0"

class TestExpressions:
    def test_binop_validates_operator(self):
        with pytest.raises(ValueError):
            BinOp("%", Const(1.0), Const(2.0))

    def test_flop_count(self):
        nest = simple_nest()
        assert nest.flops_per_iteration() == 2  # one + and one *

    def test_shift_expr_renames_temps(self):
        expr = BinOp("+", ScalarVar("t"), ScalarVar("alpha"))
        shifted = shift_expr(expr, {}, renames={"t": "t_1"})
        assert shifted.left == ScalarVar("t_1")
        assert shifted.right == ScalarVar("alpha")

    def test_shift_expr_moves_subscripts(self):
        ref = ArrayRef("A", (Subscript.of({"I": 1}),))
        shifted = shift_expr(ref, {"I": 2})
        assert shifted.subscripts[0].const == 2

class TestBounds:
    def test_bound_of_int_str(self):
        assert Bound.of(4).evaluate({}) == 4
        assert Bound.of("N").evaluate({"N": 9}) == 9

    def test_bound_plus(self):
        assert Bound.of("N").plus(-1).evaluate({"N": 9}) == 8

    def test_bound_of_rejects_float(self):
        with pytest.raises(TypeError):
            Bound.of(1.5)

class TestNest:
    def test_structure(self):
        nest = simple_nest()
        assert nest.depth == 2
        assert nest.index_names == ("I", "J")
        assert nest.loop_position("J") == 1
        assert nest.array_names() == ("A", "B")

    def test_parameters(self):
        nest = simple_nest()
        assert set(nest.parameters()) == {"N", "M"}

    def test_scalar_temporaries_empty_when_only_reads(self):
        assert simple_nest().scalar_temporaries() == ()

    def test_builder_requires_loops_and_body(self):
        with pytest.raises(ValueError):
            NestBuilder("x").build()
        b = NestBuilder("y")
        b.loop("I", 0, 4)
        with pytest.raises(ValueError):
            b.build()

class TestInterning:
    def test_retouched_nest_stays_canonical_past_capacity(self):
        """The intern table evicts the least recently used structure, so
        a nest in use survives any number of one-off structures."""
        base = simple_nest()
        kept = intern_nest(dataclasses.replace(base, name="intern-kept"))
        for index in range(4096):
            intern_nest(dataclasses.replace(base, name=f"intern-{index}"))
            twin = dataclasses.replace(base, name="intern-kept")
            assert intern_nest(twin) is kept, index

class TestBuilderIndexArithmetic:
    def test_index_addition(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 7)
        ref = b.ref("A", I + 3).node
        assert ref.subscripts[0].const == 3

    def test_index_negation_and_scaling(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 7)
        ref = b.ref("A", 2 * I - 1, -I).node
        assert ref.subscripts[0].coeff("I") == 2
        assert ref.subscripts[0].const == -1
        assert ref.subscripts[1].coeff("I") == -1

    def test_param_subscript(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, "N")
        ref = b.ref("A", I + "N").node
        assert ref.subscripts[0].param_coeffs == (("N", 1),)
