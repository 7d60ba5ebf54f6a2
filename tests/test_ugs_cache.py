"""Cross-nest UGS memoization: signature, parity fuzz, disk tier.

The contract under test is bit-exactness: tables served from
:class:`repro.engine.ugscache.UgsTableCache` must be indistinguishable --
same JSON serialization, same decisions -- from a fresh build, across
machines, line sizes, trips and localized spaces, while actually sharing
entries between structurally different nests (translation twins, renamed
arrays, common archetypes inside a random corpus).
"""

from __future__ import annotations

import pytest

from repro.corpus import CorpusConfig, iter_corpus
from repro.engine import AnalysisEngine
from repro.engine.disk import DiskTier
from repro.engine.metrics import Metrics
from repro.engine.ugscache import UgsTableCache, ugs_digest, ugs_signature
from repro.ir.builder import NestBuilder
from repro.linalg import VectorSpace
from repro.machine.presets import dec_alpha
from repro.reuse.locality import innermost_localized_space
from repro.reuse.ugs import partition_ugs
from repro.unroll.serialize import tables_to_json
from repro.unroll.space import UnrollSpace
from repro.unroll.tables import build_tables

def _space(nest, bound=2):
    dims = tuple(range(nest.depth - 1))  # all but the innermost loop
    return UnrollSpace(nest.depth, dims, (bound,) * len(dims))

def _shifted_nest(name, shift, array="A"):
    """OUT(I) = A(I+shift) + A(I+shift-1): one write set, one read pair
    whose constant vectors translate with ``shift``."""
    b = NestBuilder(name)
    (i,) = b.loops(("I", 1, "N"))
    b.assign(b.ref("OUT", i),
             b.ref(array, i + shift) + b.ref(array, i + shift - 1))
    return b.build()

class TestSignature:
    def test_translation_invariance(self):
        a = _shifted_nest("a", 0)
        b = _shifted_nest("b", 4)
        space = _space(a)
        loc = innermost_localized_space(a)
        sigs_a = {ugs_signature(g, space, loc, 4, 100)
                  for g in partition_ugs(a)}
        sigs_b = {ugs_signature(g, space, loc, 4, 100)
                  for g in partition_ugs(b)}
        assert sigs_a == sigs_b

    def test_array_name_is_irrelevant(self):
        a = _shifted_nest("a", 0)
        z = _shifted_nest("z", 0, array="Z")
        space = _space(a)
        loc = innermost_localized_space(a)
        assert {ugs_signature(g, space, loc, 4, 100)
                for g in partition_ugs(a)} == \
            {ugs_signature(g, space, loc, 4, 100)
             for g in partition_ugs(z)}

    def test_line_size_trip_and_localized_discriminate(self):
        nest = _shifted_nest("a", 0)
        space = _space(nest)
        loc = innermost_localized_space(nest)
        [group] = [g for g in partition_ugs(nest) if len(g.members) == 2]
        base = ugs_signature(group, space, loc, 4, 100)
        assert ugs_signature(group, space, loc, 8, 100) != base
        assert ugs_signature(group, space, loc, 4, 50) != base
        other = VectorSpace([], nest.depth)  # nothing localized
        assert ugs_signature(group, space, other, 4, 100) != base

    def test_space_bounds_discriminate(self):
        b = NestBuilder("deep")
        j, i = b.loops(("J", 1, "N"), ("I", 1, "N"))
        b.assign(b.ref("OUT", j, i), b.ref("A", j, i) + b.ref("A", j - 1, i))
        nest = b.build()
        loc = innermost_localized_space(nest)
        [group] = [g for g in partition_ugs(nest) if len(g.members) == 2]
        assert ugs_signature(group, _space(nest, 2), loc, 4, 100) != \
            ugs_signature(group, _space(nest, 3), loc, 4, 100)

    def test_read_write_role_discriminates(self):
        # A(I) = A(I) + 1 vs OUT(I) = A(I) + A(I): same H, same constants,
        # different is_write pattern.
        b = NestBuilder("rw")
        (i,) = b.loops(("I", 1, "N"))
        b.assign(b.ref("A", i), b.ref("A", i) + 1.0)
        rw = b.build()
        b = NestBuilder("ro")
        (i,) = b.loops(("I", 1, "N"))
        b.assign(b.ref("OUT", i), b.ref("A", i) * 2.0)
        ro = b.build()
        space = _space(rw)
        loc = innermost_localized_space(rw)
        rw_sigs = {ugs_signature(g, space, loc, 4, 100)
                   for g in partition_ugs(rw) if g.array == "A"}
        ro_sigs = {ugs_signature(g, space, loc, 4, 100)
                   for g in partition_ugs(ro) if g.array == "A"}
        assert rw_sigs.isdisjoint(ro_sigs)

    def test_digest_is_prefixed_and_stable(self):
        nest = _shifted_nest("a", 0)
        space = _space(nest)
        loc = innermost_localized_space(nest)
        [group] = [g for g in partition_ugs(nest) if len(g.members) == 2]
        sig = ugs_signature(group, space, loc, 4, 100)
        digest = ugs_digest(sig)
        assert digest.startswith("ugs-")
        assert digest == ugs_digest(sig)

class TestCacheUnit:
    def test_hit_rebinds_ugs_and_counts(self):
        nest = _shifted_nest("a", 0)
        twin = _shifted_nest("b", 7, array="Z")
        metrics = Metrics()
        cache = UgsTableCache(metrics=metrics)
        build_tables(nest, _space(nest), ugs_cache=cache)
        assert metrics.counter("cache.ugs.miss") == 2
        assert len(cache) == 2  # both sets stored
        tables = build_tables(twin, _space(twin), ugs_cache=cache)
        assert metrics.counter("cache.ugs.hit") == 2
        # Served entries carry the *caller's* groups, not the twin's.
        arrays = {entry.ugs.array for entry in tables.per_ugs}
        assert arrays == {"OUT", "Z"}

    def test_lru_eviction(self):
        cache = UgsTableCache(capacity=1, metrics=Metrics())
        a = _shifted_nest("a", 0)
        build_tables(a, _space(a), ugs_cache=cache)
        assert len(cache) == 1  # the second store evicted the first

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            UgsTableCache(capacity=0)

class TestParityFuzz:
    """Cached tables are bit-identical to fresh builds: >= 500 seeded
    nests through one shared cache, cycling line sizes, trips and
    localized spaces, comparing full JSON serializations."""

    def test_corpus_parity(self):
        cache = UgsTableCache(metrics=Metrics())
        line_sizes = (4, 8, 16)
        trips = (100, 50, 10)
        mismatches = []
        for n, nest in enumerate(iter_corpus(
                CorpusConfig(seed=20260808), count=500)):
            space = _space(nest, bound=2)
            line = line_sizes[n % len(line_sizes)]
            trip = trips[n % len(trips)]
            localized = None
            if nest.depth > 1 and n % 5 == 0:
                localized = VectorSpace.spanned_by_axes(
                    [nest.depth - 2, nest.depth - 1], nest.depth)
            fresh = build_tables(nest, space, line_size=line, trip=trip,
                                 localized=localized)
            cached = build_tables(nest, space, line_size=line, trip=trip,
                                  localized=localized, ugs_cache=cache)
            if tables_to_json(fresh) != tables_to_json(cached):
                mismatches.append(nest.name)
        assert mismatches == []
        # The fuzz only means something if the cache actually served hits.
        hits = cache.metrics.counter("cache.ugs.hit")
        assert hits > 100, f"only {hits} cross-nest hits in 500 nests"

    def test_translation_twins_share_tables_bit_exactly(self):
        cache = UgsTableCache(metrics=Metrics())
        a = _shifted_nest("a", 0)
        b = _shifted_nest("b", 4, array="Z")
        build_tables(a, _space(a), ugs_cache=cache)
        served = build_tables(b, _space(b), ugs_cache=cache)
        fresh = build_tables(b, _space(b))
        assert tables_to_json(served) == tables_to_json(fresh)
        assert cache.metrics.counter("cache.ugs.hit") == 2

class TestEngineIntegration:
    def test_decisions_identical_with_and_without_cache(self):
        corpus = list(iter_corpus(CorpusConfig(seed=11), count=40))
        machine = dec_alpha()
        with_cache = AnalysisEngine()
        without = AnalysisEngine(ugs_cache=False)
        assert without.ugs_cache is None
        got = with_cache.optimize_many(corpus, machine, bound=3)
        want = without.optimize_many(corpus, machine, bound=3)
        assert [i.result.unroll for i in got.items] == \
            [i.result.unroll for i in want.items]
        assert [i.result.objective for i in got.items] == \
            [i.result.objective for i in want.items]
        counters = with_cache.metrics.snapshot()["counters"]
        assert counters.get("cache.ugs.hit", 0) > 0

    def test_cache_stats_and_clear(self):
        engine = AnalysisEngine()
        engine.optimize(_shifted_nest("a", 0), dec_alpha(), bound=2)
        stats = engine.cache_stats()
        assert stats["memory"]["ugs"] == len(engine.ugs_cache) > 0
        assert "ugs" in stats["hit_rates"]
        assert "tables" in stats["hit_rates"]
        engine.clear()
        assert len(engine.ugs_cache) == 0

    def test_disabled_cache_stats(self):
        stats = AnalysisEngine(ugs_cache=False).cache_stats()
        assert stats["memory"]["ugs"] == 0

class TestSharedTier:
    """The cross-process tier every engine (and every cluster shard)
    pointed at one directory shares: the per-file disk tier."""

    def test_round_trip_through_shared_store(self, tmp_path):
        nest = _shifted_nest("a", 0)
        writer = UgsTableCache(metrics=Metrics(), disk=DiskTier(tmp_path))
        build_tables(nest, _space(nest), ugs_cache=writer)
        assert writer.metrics.counter("cache.ugs.disk_store") == 2
        assert len(list(tmp_path.glob("ugs-*.json"))) == 2

        # A fresh process-local cache on the same directory: both sets
        # come back from the disk tier, bit-identical.
        reader = UgsTableCache(metrics=Metrics(), disk=DiskTier(tmp_path))
        served = build_tables(nest, _space(nest), ugs_cache=reader)
        assert reader.metrics.counter("cache.ugs.disk_hit") == 2
        assert tables_to_json(served) == \
            tables_to_json(build_tables(nest, _space(nest)))

    def test_corrupt_shared_blob_degrades_to_miss(self, tmp_path):
        nest = _shifted_nest("a", 0)
        space = _space(nest)
        loc = innermost_localized_space(nest)
        # Junk under the exact file names the reader will probe: present
        # entries that fail to deserialize must degrade to misses.
        for group in partition_ugs(nest):
            digest = ugs_digest(ugs_signature(group, space, loc, 4, 100))
            (tmp_path / f"{digest}.json").write_text("{not json")
        reader = UgsTableCache(metrics=Metrics(), disk=DiskTier(tmp_path))
        served = build_tables(nest, _space(nest), ugs_cache=reader)
        assert reader.metrics.counter("cache.ugs.miss") == 2
        assert reader.metrics.counter("cache.ugs.disk_hit") == 0
        assert tables_to_json(served) == \
            tables_to_json(build_tables(nest, _space(nest)))
        # The rebuild overwrote the junk with loadable entries.
        again = UgsTableCache(metrics=Metrics(), disk=DiskTier(tmp_path))
        build_tables(nest, _space(nest), ugs_cache=again)
        assert again.metrics.counter("cache.ugs.disk_hit") == 2

    def test_engine_level_cross_nest_shared_hit(self, tmp_path):
        """Nest B never ran anywhere, but its UGSs match nest A's up to
        translation/renaming -- a second engine on the same directory
        folds A's published per-set tables into B's build."""
        machine = dec_alpha()
        first = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        first.optimize(_shifted_nest("a", 0), machine, bound=3)

        second = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        result = second.optimize(_shifted_nest("b", 4, array="Z"),
                                 machine, bound=3)
        counters = second.metrics.snapshot()["counters"]
        assert counters.get("cache.ugs.disk_hit", 0) >= 1
        fresh = AnalysisEngine(ugs_cache=False).optimize(
            _shifted_nest("b", 4, array="Z"), machine, bound=3)
        assert result.unroll == fresh.unroll
        assert result.objective == fresh.objective
