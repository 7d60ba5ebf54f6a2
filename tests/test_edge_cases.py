"""Edge-case coverage across the API surface: builder arithmetic, intrinsic
evaluation, table/space error paths, the top-level package, lazy imports."""

import math

import numpy as np
import pytest

import repro
from repro.ir.builder import E, IndexExpr, NestBuilder
from repro.ir.interp import InterpreterError, run_nest
from repro.ir.nodes import BinOp, Call, Const
from repro.unroll.space import UnrollSpace
from repro.unroll.tables import OffsetTable, build_tables

class TestTopLevelPackage:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quick_workflow(self):
        b = repro.NestBuilder("intro")
        J, I = b.loops(("J", 0, "N"), ("I", 0, "M"))
        b.assign(b.ref("A", J), b.ref("A", J) + b.ref("B", I))
        nest = b.build()
        result = repro.choose_unroll(nest, repro.dec_alpha(), bound=2)
        text = repro.format_nest(
            repro.unroll_and_jam(nest, result.unroll).main)
        assert repro.parse_nest(text).loops[0].index == "J"

    def test_machine_lazy_attributes(self):
        import repro.machine as machine_pkg

        assert callable(machine_pkg.simulate)
        assert machine_pkg.CacheSimulator(64, 4).num_sets == 16
        with pytest.raises(AttributeError):
            machine_pkg.nonexistent_thing

class TestBuilderArithmetic:
    def test_index_rsub_and_rmul(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 9)
        ref = b.ref("A", 10 - I, 3 * I).node
        assert ref.subscripts[0].coeff("I") == -1
        assert ref.subscripts[0].const == 10
        assert ref.subscripts[1].coeff("I") == 3

    def test_index_plus_param_string(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 9)
        ref = b.ref("A", I + "N").node
        assert ref.subscripts[0].param_coeffs == (("N", 1),)

    def test_expr_reverse_ops(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 9)
        node = (2.0 - b.ref("A", I)).node
        assert isinstance(node, BinOp) and node.op == "-"
        assert isinstance(node.left, Const) and node.left.value == 2.0
        node = (2.0 / b.ref("A", I)).node
        assert node.op == "/"
        neg = (-b.ref("A", I)).node
        assert neg.op == "-" and isinstance(neg.left, Const)

    def test_index_expr_not_an_expression_value(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 9)
        with pytest.raises(TypeError):
            E(I)

    def test_bad_subscript_type(self):
        b = NestBuilder("t")
        b.loop("I", 0, 9)
        with pytest.raises(TypeError):
            b.ref("A", 1.5)

class TestIntrinsics:
    @pytest.mark.parametrize("func,arg,expected", [
        ("sqrt", 4.0, 2.0),
        ("abs", -3.0, 3.0),
        ("exp", 0.0, 1.0),
        ("sin", 0.0, 0.0),
        ("cos", 0.0, 1.0),
    ])
    def test_unary_intrinsics(self, func, arg, expected):
        b = NestBuilder("t")
        I = b.loop("I", 0, 0)
        b.assign(b.ref("A", I), b.call(func, arg))
        arrays = {"A": np.zeros(1)}
        run_nest(b.build(), {}, arrays)
        assert arrays["A"][0] == pytest.approx(expected)

    def test_binary_intrinsics(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 0)
        b.assign(b.ref("A", I), b.call("max", 2.0, 5.0)
                 + b.call("min", 2.0, 5.0))
        arrays = {"A": np.zeros(1)}
        run_nest(b.build(), {}, arrays)
        assert arrays["A"][0] == 7.0

    def test_unknown_intrinsic_raises(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 0)
        b.assign(b.ref("A", I), b.call("gamma", 1.0))
        with pytest.raises(InterpreterError):
            run_nest(b.build(), {}, {"A": np.zeros(1)})

class TestTablesAndSpaceErrors:
    def nest(self):
        b = NestBuilder("t")
        I, J = b.loops(("I", 0, "N"), ("J", 0, "N"))
        b.assign(b.ref("A", I, J), b.ref("A", I, J) + 1.0)
        return b.build()

    def test_point_outside_space_rejected(self):
        space = UnrollSpace.for_dims(2, [0], 2)
        tables = build_tables(self.nest(), space)
        with pytest.raises(ValueError):
            tables.point((5, 0))

    def test_point_rereads_equal_values(self):
        space = UnrollSpace.for_dims(2, [0], 2)
        tables = build_tables(self.nest(), space)
        assert tables.point((1, 0)) == tables.point((1, 0))

    def test_all_points(self):
        space = UnrollSpace.for_dims(2, [0], 2)
        tables = build_tables(self.nest(), space)
        points = tables.all_points()
        assert len(points) == 3
        assert [p.u for p in points] == [(0, 0), (1, 0), (2, 0)]

    def test_offset_table_box_sum_empty_dims(self):
        table = OffsetTable((), (), [7])
        assert table.box_sum(()) == 7

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            UnrollSpace(2, (0,), (-1,))

class TestInterpreterEdges:
    def test_zero_trip_loop(self):
        b = NestBuilder("t")
        I = b.loop("I", 5, 4)  # empty range
        b.assign(b.ref("A", I), 1.0)
        arrays = {"A": np.zeros(6)}
        run_nest(b.build(), {}, arrays)
        assert not arrays["A"].any()

    def test_index_readable_as_scalar(self):
        """Loop indices can appear as values (e.g. A(I) = I * 0.5)."""
        b = NestBuilder("t")
        I = b.loop("I", 0, 3)
        b.assign(b.ref("A", I), b.scalar("I") * 0.5)
        arrays = {"A": np.zeros(4)}
        run_nest(b.build(), {}, arrays)
        assert np.allclose(arrays["A"], [0, 0.5, 1.0, 1.5])

    def test_unbound_array(self):
        b = NestBuilder("t")
        I = b.loop("I", 0, 1)
        b.assign(b.ref("A", I), b.ref("Z", I))
        with pytest.raises(InterpreterError):
            run_nest(b.build(), {}, {"A": np.zeros(2)})
