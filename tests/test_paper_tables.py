"""The paper's literal window algorithms (Figures 2/3/5) versus the exact
lattice counts, including the documented divergence cases."""

import pytest

from repro.baselines.brute_force import measure_unrolled
from repro.ir.builder import NestBuilder
from repro.reuse.locality import innermost_localized_space
from repro.reuse.ugs import partition_ugs
from repro.unroll.paper_tables import gss_table, gts_table, rrs_table
from repro.unroll.space import UnrollSpace
from repro.unroll.streams import stream_chains
from tests.reference import group_count

def figure1_nest():
    b = NestBuilder("fig1")
    I, J = b.loops(("I", 2, "N"), ("J", 0, "N"))
    b.assign(b.ref("A", I, J), b.ref("A", I - 2, J) + 1.0)
    return b.build()

def chain_nest():
    b = NestBuilder("chain")
    I, J = b.loops(("I", 2, "N"), ("J", 0, "N"))
    b.assign(b.ref("C", I, J),
             b.ref("A", I, J) + b.ref("A", I - 1, J) + b.ref("A", I - 2, J))
    return b.build()

def ugs_of(nest, array):
    return next(s for s in partition_ugs(nest) if s.array == array)

class TestFigure1Example:
    """Section 4.2's worked example: the A(I,J) def and A(I-2,J) use merge
    at unroll vector (2, 0)."""

    def test_table_entries(self):
        nest = figure1_nest()
        space = UnrollSpace.for_dims(2, [0], 4)
        localized = innermost_localized_space(nest)
        table = gts_table(ugs_of(nest, "A"), space, localized)
        # offsets 0 and 1 create 2 new GTSs each; from offset 2 on, the
        # copy of A(I-2,J) lands on an existing group: only 1 new GTS.
        assert table.entries[(0,)] == 2
        assert table.entries[(1,)] == 2
        assert table.entries[(2,)] == 1
        assert table.entries[(3,)] == 1

    def test_sum_matches_exact_count(self):
        nest = figure1_nest()
        space = UnrollSpace.for_dims(2, [0], 4)
        localized = innermost_localized_space(nest)
        ugs = ugs_of(nest, "A")
        table = gts_table(ugs, space, localized)
        for u in space:
            exact = group_count(ugs, u, space.dims, localized)
            assert table.sum(u) == exact, u

    def test_figure1_value_at_two(self):
        """Unrolling I by 2 yields 5 GTSs (checked in the paper's Figure 1
        narrative and against the unrolled code)."""
        nest = figure1_nest()
        space = UnrollSpace.for_dims(2, [0], 4)
        table = gts_table(ugs_of(nest, "A"), space,
                          innermost_localized_space(nest))
        assert table.sum(space.embed((2,))) == 5

class TestWindowBookkeeping:
    def test_three_leader_chain_windows(self):
        """A(I), A(I-1), A(I-2): the superleader windows must not double
        subtract when a leader merges with two earlier ones."""
        nest = chain_nest()
        space = UnrollSpace.for_dims(2, [0], 5)
        localized = innermost_localized_space(nest)
        ugs = ugs_of(nest, "A")
        table = gts_table(ugs, space, localized)
        for u in space:
            exact = group_count(ugs, u, space.dims, localized)
            assert table.sum(u) == exact, u

    def test_gss_windows(self):
        nest = chain_nest()
        space = UnrollSpace.for_dims(2, [0], 5)
        localized = innermost_localized_space(nest)
        ugs = ugs_of(nest, "A")
        table = gss_table(ugs, space, localized)
        # spatially the whole chain shares lines from the start (H_S kills
        # the I row): one GSS at every unroll amount.
        for u in space:
            assert table.sum(u) == 1

class TestRRSTable:
    def test_rrs_counts_match_chains(self):
        nest = chain_nest()
        space = UnrollSpace.for_dims(2, [0], 5)
        ugs = ugs_of(nest, "A")
        table = rrs_table(ugs, space)
        for u in space:
            exact = stream_chains(ugs, u, space.dims).memory_ops
            assert table.sum(u) == exact, u

    def test_def_use_rrs_merging(self):
        nest = figure1_nest()
        space = UnrollSpace.for_dims(2, [0], 4)
        ugs = ugs_of(nest, "A")
        table = rrs_table(ugs, space)
        for u in space:
            exact = stream_chains(ugs, u, space.dims).memory_ops
            assert table.sum(u) == exact, u

class TestKernelAgreement:
    @pytest.mark.parametrize("kernel_name", ["jacobi", "dmxpy1", "gmtry.3",
                                             "cond.9", "vpenta.7"])
    def test_gts_tables_agree_on_kernels(self, kernel_name):
        from repro.kernels import kernel_by_name

        nest = kernel_by_name(kernel_name).nest
        localized = innermost_localized_space(nest)
        dims = [lv for lv in range(nest.depth - 1)][:1]
        space = UnrollSpace.for_dims(nest.depth, dims, 4)
        for ugs in partition_ugs(nest):
            table = gts_table(ugs, space, localized)
            for u in space:
                exact = group_count(ugs, u, space.dims, localized)
                assert table.sum(u) == exact, (ugs.array, u)

class TestDocumentedDivergence:
    def test_mixed_sign_merge_is_missed_by_windows(self):
        """Constants (0,0) vs (1,-2) over a two-loop unroll: the copies do
        merge (offset difference (1,-2)), the window scheme cannot see it.
        This is the reproduction's documented fidelity gap of the paper's
        pseudocode; the exact lattice count is the reference."""
        b = NestBuilder("mixed")
        I, J, K = b.loops(("I", 0, "N"), ("J", 2, "N"), ("K", 0, "N"))
        b.assign(b.ref("C", I, J, K),
                 b.ref("A", I, J, K) + b.ref("A", I + 1, J - 2, K))
        nest = b.build()
        space = UnrollSpace(3, (0, 1), (2, 2))
        localized = innermost_localized_space(nest)
        ugs = ugs_of(nest, "A")
        u = space.embed((2, 2))
        exact = group_count(ugs, u, space.dims, localized)
        paper = gts_table(ugs, space, localized).sum(u)
        assert paper > exact  # the window scheme over-counts groups
        # and the exact count is what the materialized body shows:
        # (C(I,J,K) contributes 3x3 = 9 distinct store groups)
        measured = measure_unrolled(nest, u, line_size=4)
        assert measured.gts == exact + 9
