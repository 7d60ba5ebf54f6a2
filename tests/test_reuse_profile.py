"""Static reuse-distance profiles and the set-associative miss model.

Unit-level coverage of the chain validated end-to-end by
``benchmarks/bench_reuse_profile.py``: the binomial
:func:`~repro.machine.cache.miss_probability` model, the per-reference
histograms of :func:`~repro.reuse.profile.reuse_profile`, the
:class:`~repro.reuse.profile.AssocMissModel` pricing hook, and the
engine/api plumbing around them (docs/REUSE.md).
"""

import math
from fractions import Fraction

import pytest

import repro.api as api
from repro.engine import AnalysisEngine
from repro.ir.builder import NestBuilder
from repro.machine.cache import CacheSpec, miss_probability
from repro.machine.presets import dec_alpha
from repro.reuse.profile import AssocMissModel, reuse_profile

def streaming_nest():
    b = NestBuilder("stream")
    I = b.loop("I", 0, "N")
    b.assign(b.ref("A", I), b.ref("B", I) * 2.0)
    return b.build()

def mm_jik():
    b = NestBuilder("mmjik")
    J, I, K = b.loops(("J", 0, "N"), ("I", 0, "N"), ("K", 0, "N"))
    b.assign(b.ref("C", I, J),
             b.ref("C", I, J) + b.ref("A", I, K) * b.ref("B", K, J))
    return b.build()

class TestCacheSpec:
    def test_derived_geometry(self):
        spec = CacheSpec(1024, 4, 4)
        assert spec.num_sets == 64
        assert spec.num_lines == 256

    def test_for_machine_matches_fields(self):
        machine = dec_alpha()
        spec = CacheSpec.for_machine(machine)
        assert spec.size_words == machine.cache_size_words
        assert spec.line_words == machine.cache_line_words
        assert spec.assoc == machine.cache_assoc

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheSpec(0, 4, 1)
        with pytest.raises(ValueError):
            CacheSpec(64, 4, 0)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            CacheSpec(100, 4, 3)

    def test_describe_names_the_shape(self):
        assert "direct-mapped" in CacheSpec(512, 4, 1).describe()
        assert "fully-assoc" in CacheSpec(32, 4, 8).describe()
        assert "4-way" in CacheSpec(1024, 4, 4).describe()

class TestMissProbability:
    DIRECT = CacheSpec(512, 4, 1)  # 128 sets

    def test_cold_distance_always_misses(self):
        assert miss_probability(None, self.DIRECT) == 1.0
        assert miss_probability(math.inf, self.DIRECT) == 1.0
        assert miss_probability(math.nan, self.DIRECT) == 1.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            miss_probability(-1, self.DIRECT)

    def test_lru_guarantee_below_associativity(self):
        spec = CacheSpec(1024, 4, 4)
        for d in range(4):
            assert miss_probability(d, spec) == 0.0
        assert miss_probability(4, spec) > 0.0

    def test_fully_associative_is_exact_stack_distance(self):
        spec = CacheSpec(32, 4, 8)  # one set, 8 ways
        assert miss_probability(7, spec) == 0.0
        assert miss_probability(8, spec) == 1.0

    def test_direct_mapped_is_binomial_complement(self):
        # assoc=1: P(hit) = (1 - 1/S)^d exactly.
        sets = self.DIRECT.num_sets
        for d in (1, 10, 100):
            expected = 1.0 - (1.0 - 1.0 / sets) ** d
            assert miss_probability(d, self.DIRECT) == \
                pytest.approx(expected)

    def test_monotone_in_distance(self):
        spec = CacheSpec(1024, 4, 4)
        probs = [miss_probability(d, spec) for d in (4, 16, 64, 256, 4096)]
        assert probs == sorted(probs)
        assert probs[-1] <= 1.0

    def test_huge_distance_saturates(self):
        assert miss_probability(10 ** 9, self.DIRECT) == 1.0

class TestReuseProfileBins:
    def test_streaming_is_spatial_plus_leader(self):
        profile = reuse_profile(streaming_nest(), line_size=4, trip=100)
        assert profile.depth == 1
        assert len(profile.refs) == 2
        for ref in profile.refs:
            kinds = {b.kind: b for b in ref.bins}
            # 3 of 4 touches reuse the line at delay 1; the leader is cold.
            assert kinds["spatial"].fraction == pytest.approx(0.75)
            assert kinds["spatial"].delay == pytest.approx(1.0)
            assert kinds["cold"].distance is None

    def test_fractions_sum_to_one(self):
        for nest in (streaming_nest(), mm_jik()):
            profile = reuse_profile(nest, line_size=4, trip=40)
            for ref in profile.refs:
                assert sum(b.fraction for b in ref.bins) == \
                    pytest.approx(1.0)

    def test_mm_jik_mechanisms(self):
        """The paper's running example (column-major): C(I,J) is invariant
        in innermost K, B(K,J) streams its contiguous subscript along K,
        and A(I,K)'s contiguous subscript I is the middle loop so its
        line reuse waits a full K trip."""
        profile = reuse_profile(mm_jik(), line_size=4, trip=40)
        by_array = {}
        for ref in profile.refs:
            by_array.setdefault(ref.array, ref)
        c_kinds = {b.kind for b in by_array["C"].bins}
        assert c_kinds == {"temporal"}
        assert by_array["C"].bins[0].delay == pytest.approx(1.0)
        a_kinds = {b.kind: b for b in by_array["A"].bins}
        assert a_kinds["spatial"].delay == pytest.approx(40.0)
        b_kinds = {b.kind: b for b in by_array["B"].bins}
        assert b_kinds["spatial"].delay == pytest.approx(1.0)
        assert b_kinds["temporal"].delay == pytest.approx(40.0)

    def test_distance_scales_with_lines_per_iteration(self):
        profile = reuse_profile(mm_jik(), line_size=4, trip=40)
        for ref in profile.refs:
            for b in ref.bins:
                if b.distance is not None and b.delay is not None:
                    assert b.distance == pytest.approx(
                        max(b.delay, 1.0) * profile.lines_per_iteration) \
                        or b.distance == pytest.approx(
                            b.delay * profile.lines_per_iteration)

    def test_trip_scales_outer_carried_distance(self):
        short = reuse_profile(mm_jik(), line_size=4, trip=10)
        long = reuse_profile(mm_jik(), line_size=4, trip=100)
        # B(K,J)'s temporal reuse is carried by I (delay = trip).
        def b_temporal(profile):
            for ref in profile.refs:
                if ref.array == "B":
                    for b in ref.bins:
                        if b.kind == "temporal":
                            return b.delay
            return None
        assert b_temporal(long) == pytest.approx(10 * b_temporal(short))

class TestNestProfileSummaries:
    def test_miss_ratio_between_0_and_1(self):
        profile = reuse_profile(mm_jik(), line_size=4, trip=24)
        for spec in (CacheSpec(512, 4, 1), CacheSpec(1024, 4, 4),
                     CacheSpec(32, 4, 8)):
            assert 0.0 <= profile.miss_ratio(spec) <= 1.0

    def test_misses_per_iteration_is_ratio_times_refs(self):
        profile = reuse_profile(mm_jik(), line_size=4, trip=24)
        spec = CacheSpec(1024, 4, 4)
        assert profile.misses_per_iteration(spec) == pytest.approx(
            profile.miss_ratio(spec) * len(profile.refs))

    def test_bigger_cache_never_misses_more(self):
        profile = reuse_profile(mm_jik(), line_size=4, trip=24)
        small = profile.miss_ratio(CacheSpec(256, 4, 4))
        big = profile.miss_ratio(CacheSpec(16384, 4, 4))
        assert big <= small

    def test_cold_fraction_streaming(self):
        profile = reuse_profile(streaming_nest(), line_size=4, trip=100)
        assert profile.cold_fraction() == pytest.approx(0.25)

    def test_carried_fractions_shape(self):
        profile = reuse_profile(mm_jik(), line_size=4, trip=40)
        carried = profile.carried_fractions()
        assert len(carried) == 3
        assert sum(carried) == pytest.approx(1.0)
        # Innermost-carried reuse (C and A at delay 1) dominates.
        assert carried[-1] >= 0.5

    def test_to_dict_is_json_shaped(self):
        import json
        doc = reuse_profile(mm_jik(), line_size=4, trip=40).to_dict()
        json.dumps(doc)
        assert doc["nest"] == "mmjik"
        assert doc["depth"] == 3 and doc["trip"] == 40
        assert {r["array"] for r in doc["refs"]} == {"A", "B", "C"}

class TestAssocMissModel:
    def test_conflict_is_exact_fraction(self):
        profile = reuse_profile(mm_jik(), line_size=4, trip=24)
        model = AssocMissModel(profile, CacheSpec(512, 4, 1))
        assert isinstance(model.conflict, Fraction)
        assert 0 <= model.conflict <= 1

    def test_misses_prices_hits_by_conflict(self):
        class Point:
            cache_cost = Fraction(1, 2)
            memory_ops = Fraction(4)
        profile = reuse_profile(mm_jik(), line_size=4, trip=24)
        model = AssocMissModel(profile, CacheSpec(512, 4, 1))
        expected = Fraction(1, 2) + Fraction(7, 2) * model.conflict
        assert model.misses(Point()) == expected

    def test_misses_never_below_equation1(self):
        class Point:
            cache_cost = Fraction(3)
            memory_ops = Fraction(2)  # scalar replacement took ops away
        profile = reuse_profile(streaming_nest(), line_size=4, trip=100)
        model = AssocMissModel(profile, CacheSpec(512, 4, 1))
        assert model.misses(Point()) == Fraction(3)

    def test_for_machine_uses_machine_geometry(self):
        machine = dec_alpha()
        profile = reuse_profile(mm_jik(),
                                line_size=machine.cache_line_words, trip=24)
        model = AssocMissModel.for_machine(profile, machine)
        assert model.spec == CacheSpec.for_machine(machine)

class TestEngineAndApi:
    def test_engine_memoizes_by_structural_key(self):
        engine = AnalysisEngine()
        machine = dec_alpha()
        first = engine.reuse_profile(mm_jik(), machine, trip=50)
        assert engine.metrics.counter("cache.profile.miss") == 1
        again = engine.reuse_profile(mm_jik(), machine, trip=50)
        assert again is first
        assert engine.metrics.counter("cache.profile.hit") == 1
        # A different trip is a different profile.
        engine.reuse_profile(mm_jik(), machine, trip=51)
        assert engine.metrics.counter("cache.profile.miss") == 2

    def test_api_verb_coerces_source(self):
        source = """
        DO I = 0, N
          A(I) = B(I) * 2.0
        ENDDO
        """
        profile = api.reuse_profile(source, machine="alpha", trip=100)
        assert profile.depth == 1
        assert len(profile.refs) == 2
        assert profile.line_size == dec_alpha().cache_line_words

    def test_optimize_cache_model_assoc_runs(self):
        report_binary = api.optimize(mm_jik(), machine="alpha", bound=2)
        report_assoc = api.optimize(mm_jik(), machine="alpha", bound=2,
                                    cache_model="assoc")
        assert report_assoc.unroll is not None
        assert report_binary.unroll is not None

    def test_optimize_rejects_unknown_cache_model(self):
        with pytest.raises(ValueError):
            api.optimize(mm_jik(), machine="alpha", cache_model="magic")
