"""The batch analysis engine: cache keying, LRU, batch parity, failures."""

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.engine import AnalysisEngine, BatchError, disk_cache_stats
from repro.ir.builder import NestBuilder
from repro.machine.presets import dec_alpha
from repro.unroll.optimize import choose_unroll

def _intro_nest(name="intro", outer="J", inner="I", array="A"):
    b = NestBuilder(name)
    J, I = b.loops((outer, 0, "N"), (inner, 0, "M"))
    b.assign(b.ref(array, J), b.ref(array, J) + b.ref("B", I))
    return b.build()

class TestStructuralKey:
    def test_identical_nests_share_key(self):
        assert _intro_nest().structural_key() == \
            _intro_nest().structural_key()

    def test_name_and_description_ignored(self):
        b = NestBuilder("other", "a totally different description")
        J, I = b.loops(("J", 0, "N"), ("I", 0, "M"))
        b.assign(b.ref("A", J), b.ref("A", J) + b.ref("B", I))
        assert b.build().structural_key() == _intro_nest().structural_key()

    def test_renamed_loop_variables_collide(self):
        """The contract: induction-variable spelling is canonicalized away."""
        assert _intro_nest(outer="JJ", inner="II").structural_key() == \
            _intro_nest().structural_key()

    def test_renamed_array_does_not_collide(self):
        assert _intro_nest(array="Z").structural_key() != \
            _intro_nest().structural_key()

    def test_changed_bound_does_not_collide(self):
        b = NestBuilder("intro")
        J, I = b.loops(("J", 1, "N"), ("I", 0, "M"))
        b.assign(b.ref("A", J), b.ref("A", J) + b.ref("B", I))
        assert b.build().structural_key() != _intro_nest().structural_key()

    def test_swapped_loop_order_does_not_collide(self):
        b = NestBuilder("intro")
        I, J = b.loops(("I", 0, "M"), ("J", 0, "N"))
        b.assign(b.ref("A", J), b.ref("A", J) + b.ref("B", I))
        assert b.build().structural_key() != _intro_nest().structural_key()

    def test_key_is_stable_hex(self):
        key = _intro_nest().structural_key()
        assert len(key) == 64
        int(key, 16)  # hex digest

class TestMemoization:
    def test_warm_optimize_hits_tables(self):
        engine = AnalysisEngine()
        machine = dec_alpha()
        nest = _intro_nest()
        first = engine.optimize(nest, machine, bound=4)
        assert engine.metrics.counter("cache.tables.miss") == 1
        second = engine.optimize(nest, machine, bound=4)
        assert engine.metrics.counter("cache.tables.hit") == 1
        assert first.unroll == second.unroll

    def test_renamed_twin_served_from_cache(self):
        engine = AnalysisEngine()
        machine = dec_alpha()
        engine.optimize(_intro_nest(), machine, bound=4)
        result = engine.optimize(_intro_nest(outer="JJ", inner="II"),
                                 machine, bound=4)
        assert engine.metrics.counter("cache.tables.hit") == 1
        # The served result reports the caller's nest, not the twin's.
        assert result.nest.index_names == ("JJ", "II")
        assert result.unroll == choose_unroll(
            _intro_nest(outer="JJ", inner="II"), machine, bound=4).unroll

    def test_lru_eviction(self):
        engine = AnalysisEngine(capacity=1)
        machine = dec_alpha()
        a = _intro_nest()
        b = _intro_nest(array="Z")
        engine.optimize(a, machine, bound=2)
        engine.optimize(b, machine, bound=2)  # evicts a
        engine.optimize(a, machine, bound=2)  # must rebuild
        assert engine.metrics.counter("cache.tables.miss") == 3
        assert engine.metrics.counter("cache.tables.hit") == 0

    def test_different_bound_is_a_different_table(self):
        engine = AnalysisEngine()
        machine = dec_alpha()
        nest = _intro_nest()
        engine.optimize(nest, machine, bound=2)
        engine.optimize(nest, machine, bound=3)
        assert engine.metrics.counter("cache.tables.miss") == 2

    def test_cache_stats_shape(self):
        engine = AnalysisEngine()
        engine.optimize(_intro_nest(), dec_alpha(), bound=2)
        stats = engine.cache_stats()
        assert stats["memory"]["tables"] == 1
        assert stats["hit_rates"]["tables"] == 0.0
        assert stats["disk_enabled"] is False

    def test_clear_drops_memos(self):
        engine = AnalysisEngine()
        machine = dec_alpha()
        engine.optimize(_intro_nest(), machine, bound=2)
        engine.reuse_profile(_intro_nest(), machine)
        engine.simd_report(_intro_nest(), machine, (1, 0))
        engine.clear()
        engine.optimize(_intro_nest(), machine, bound=2)
        engine.reuse_profile(_intro_nest(), machine)
        engine.simd_report(_intro_nest(), machine, (1, 0))
        assert engine.metrics.counter("cache.tables.miss") == 2
        assert engine.metrics.counter("cache.profile.miss") == 2
        assert engine.metrics.counter("cache.simd.misses") == 2

class TestBatch:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(CorpusConfig(routines=10, seed=42))

    def test_optimize_many_matches_sequential(self, corpus):
        machine = dec_alpha()
        engine = AnalysisEngine()
        report = engine.optimize_many(corpus, machine, bound=3)
        assert all(item.ok for item in report.items)
        expected = [choose_unroll(nest, machine, bound=3).unroll
                    for nest in corpus]
        assert [item.result.unroll for item in report.items] == expected

    def test_poisoned_batch_reports_and_survives(self, corpus):
        machine = dec_alpha()
        engine = AnalysisEngine()
        poisoned = list(corpus[:3]) + [42, BatchError("bad", "no such nest")] \
            + list(corpus[3:5])
        report = engine.optimize_many(poisoned, machine, bound=2)
        oks = [item.ok for item in report.items]
        assert oks == [True, True, True, False, False, True, True]
        assert "not a loop nest" in report.items[3].error
        assert report.items[4].error == "no such nest"
        assert len(report.results) == 5
        assert report.metrics["counters"]["batch.failures"] == 2

    def test_parallel_workers_match_serial(self, corpus):
        machine = dec_alpha()
        serial = AnalysisEngine().optimize_many(corpus, machine, bound=2)
        parallel = AnalysisEngine().optimize_many(corpus, machine, bound=2,
                                                  workers=2)
        assert [item.ok for item in parallel.items] == \
            [item.ok for item in serial.items]
        assert [item.result.unroll for item in parallel.items] == \
            [item.result.unroll for item in serial.items]
        assert parallel.workers == 2

    def test_report_to_dict_is_json_ready(self, corpus):
        import json

        report = AnalysisEngine().optimize_many(corpus[:2], dec_alpha(),
                                                bound=2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["nests"] == 2
        assert payload["items"][0]["unroll"] is not None
        assert "metrics" in payload

class TestDiskCache:
    def test_round_trip_between_engines(self, tmp_path):
        machine = dec_alpha()
        nest = _intro_nest()
        first = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        cold = first.optimize(nest, machine, bound=3)
        assert first.metrics.counter("cache.disk.store") == 1
        stats = disk_cache_stats(tmp_path)
        assert stats["entries"] == 1 and stats["bytes"] > 0

        second = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        warm = second.optimize(nest, machine, bound=3)
        assert second.metrics.counter("cache.disk.hit") == 1
        assert second.metrics.counter("cache.tables.hit") == 1
        assert warm.unroll == cold.unroll
        assert warm.breakdown == cold.breakdown

    def test_corrupt_entry_degrades_to_rebuild(self, tmp_path):
        machine = dec_alpha()
        nest = _intro_nest()
        first = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        first.optimize(nest, machine, bound=3)
        for path in tmp_path.glob("tables-*.json"):
            path.write_text("{not json")
        second = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        result = second.optimize(nest, machine, bound=3)
        assert second.metrics.counter("cache.disk.error") == 1
        assert result.unroll == choose_unroll(nest, machine, bound=3).unroll

    def test_clear_disk_cache(self, tmp_path):
        from repro.engine import clear_disk_cache

        engine = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        engine.optimize(_intro_nest(), dec_alpha(), bound=2)
        assert clear_disk_cache(tmp_path) == 1
        assert disk_cache_stats(tmp_path)["entries"] == 0

    def test_clear_disk_cache_removes_ugs_entries(self, tmp_path):
        from repro.engine import clear_disk_cache

        engine = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        engine.optimize(_intro_nest(), dec_alpha(), bound=2)
        stats = disk_cache_stats(tmp_path)
        assert stats["ugs_entries"] >= 1
        assert stats["ugs_entries"] == \
            engine.metrics.counter("cache.ugs.disk_store")
        clear_disk_cache(tmp_path)
        assert not list(tmp_path.glob("ugs-*.json"))
        assert disk_cache_stats(tmp_path)["ugs_entries"] == 0

    def test_second_engine_builds_and_publishes_nothing(self, tmp_path):
        """A second engine on a warm directory serves every table from
        disk: no build, and no republish of either entry kind."""
        machine = dec_alpha()
        first = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        first.optimize(_intro_nest(), machine, bound=3)

        second = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        second.optimize(_intro_nest(), machine, bound=3)
        assert second.metrics.counter("cache.tables.miss") == 0
        assert second.metrics.counter("cache.disk.store") == 0
        assert second.metrics.counter("cache.ugs.disk_store") == 0

    def test_disk_stats_in_cache_stats(self, tmp_path):
        stats = AnalysisEngine(disk_cache=True,
                               cache_dir=tmp_path).cache_stats()
        assert stats["disk_enabled"] is True
        assert set(stats["disk"]) == {"dir", "entries", "ugs_entries",
                                      "bytes"}
        assert set(stats["hit_rates"]) == {"graph", "artifacts", "tables",
                                           "memory", "disk", "ugs"}
        assert "disk" not in AnalysisEngine().cache_stats()
