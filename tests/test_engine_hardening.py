"""Engine hardening for the serving layer: thread safety, corrupt disk
cache recovery, and histogram-derived latency percentiles."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.engine import AnalysisEngine
from repro.engine.metrics import BUCKET_BOUNDS, Metrics, StageStats
from repro.kernels import all_kernels
from repro.machine.presets import dec_alpha
from repro.unroll.optimize import choose_unroll

class TestConcurrentEngine:
    def test_threaded_optimize_parity(self):
        """Hammer one engine from many threads: no exceptions, and every
        answer matches the sequential reference."""
        engine = AnalysisEngine(capacity=4)  # smaller than the working set:
        machine = dec_alpha()                # eviction races under load too
        kernels = all_kernels()[:6]
        expected = {kernel.name: choose_unroll(kernel.nest, machine,
                                               bound=3).unroll
                    for kernel in kernels}
        errors: list[str] = []

        def hammer() -> None:
            try:
                for _ in range(2):
                    for kernel in kernels:
                        result = engine.optimize(kernel.nest, machine,
                                                 bound=3)
                        if result.unroll != expected[kernel.name]:
                            errors.append(
                                f"{kernel.name}: {result.unroll} != "
                                f"{expected[kernel.name]}")
            except Exception as err:  # pragma: no cover - the regression
                errors.append(f"{type(err).__name__}: {err}")

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:5]
        counters = engine.metrics.counters
        probes = counters.get("cache.tables.hit", 0) + \
            counters.get("cache.tables.miss", 0)
        assert probes == 6 * 2 * len(kernels)

    def test_threaded_disk_cache(self, tmp_path):
        """Concurrent writers through the atomic-rename path leave only
        valid JSON entries behind.  The barrier start makes threads
        publish the same keys at once: each writer's temp file is its
        own, so no publish fails."""
        engine = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        machine = dec_alpha()
        kernels = all_kernels()[:4]
        start = threading.Barrier(6, timeout=30)

        def hammer() -> None:
            start.wait()
            for kernel in kernels:
                engine.optimize(kernel.nest, machine, bound=3)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the publishes finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        entries = list(tmp_path.glob("tables-*.json"))
        assert entries
        for entry in entries:
            json.loads(entry.read_text())  # every entry is complete JSON
        assert not list(tmp_path.glob("*.tmp*"))  # no leftover temp files
        assert engine.metrics.counter("cache.disk.error") == 0

class TestCorruptDiskCache:
    @pytest.mark.parametrize("mangle", [
        lambda text: "{definitely not json",
        lambda text: text[: len(text) // 2],  # truncated mid-write
        lambda text: "",
    ])
    def test_corrupt_entry_evicted_and_recomputed(self, tmp_path, mangle):
        machine = dec_alpha()
        nest = all_kernels()[0].nest
        writer = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        expected = writer.optimize(nest, machine, bound=3).unroll
        entries = list(tmp_path.glob("tables-*.json"))
        assert entries
        for entry in entries:
            entry.write_text(mangle(entry.read_text()))

        reader = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        result = reader.optimize(nest, machine, bound=3)  # must not raise
        assert result.unroll == expected
        assert reader.metrics.counter("cache.disk.error") >= 1
        assert reader.metrics.counter("cache.disk.evict") >= 1
        # The corrupt entry was replaced by a freshly computed valid one.
        for entry in tmp_path.glob("tables-*.json"):
            json.loads(entry.read_text())
        # A third engine now loads it cleanly from disk.
        third = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        assert third.optimize(nest, machine, bound=3).unroll == expected
        assert third.metrics.counter("cache.disk.hit") >= 1
        assert third.metrics.counter("cache.disk.error") == 0

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        engine = AnalysisEngine(disk_cache=True, cache_dir=tmp_path / "sub")
        machine = dec_alpha()
        nest = all_kernels()[0].nest
        engine.optimize(nest, machine, bound=3)  # cache dir auto-created
        assert engine.metrics.counter("cache.disk.store") >= 1

class TestPercentiles:
    def test_empty_and_single_observation(self):
        stats = StageStats()
        assert stats.percentile(0.5) == 0.0
        stats.observe(0.0042)
        assert stats.percentile(0.5) == pytest.approx(0.0042)
        assert stats.percentile(0.99) == pytest.approx(0.0042)

    def test_percentiles_are_ordered_and_bounded(self):
        stats = StageStats()
        for value in [0.0001] * 50 + [0.003] * 30 + [0.04] * 15 + [0.7] * 5:
            stats.observe(value)
        p50, p95, p99 = (stats.percentile(q) for q in (0.50, 0.95, 0.99))
        assert stats.min <= p50 <= p95 <= p99 <= stats.max
        assert p50 <= BUCKET_BOUNDS[1]  # the median is in the small bucket
        assert p99 >= 0.04  # the tail reaches the slow observations

    def test_open_bucket_clamps_to_max(self):
        stats = StageStats()
        for value in (15.0, 20.0, 30.0):  # all beyond the last bound
            stats.observe(value)
        assert stats.percentile(0.99) <= stats.max
        assert stats.percentile(0.5) >= BUCKET_BOUNDS[-1]

    def test_rank_validation(self):
        stats = StageStats()
        stats.observe(0.1)
        stats.observe(0.2)
        with pytest.raises(ValueError):
            stats.percentile(0.0)
        with pytest.raises(ValueError):
            stats.percentile(1.5)

    def test_to_dict_and_merge_carry_percentiles(self):
        a = Metrics()
        b = Metrics()
        for value in (0.001, 0.002, 0.003):
            a.observe("stage.x", value)
        for value in (0.1, 0.2):
            b.observe("stage.x", value)
        a.merge(b.snapshot())
        merged = a.stages["stage.x"]
        assert merged.count == 5
        payload = merged.to_dict()
        for key in ("p50_s", "p95_s", "p99_s"):
            assert key in payload
        assert payload["p50_s"] <= payload["p95_s"] <= payload["p99_s"]
        assert payload["p99_s"] <= merged.max

    def test_thread_safe_counters(self):
        metrics = Metrics()

        def spin() -> None:
            for _ in range(2000):
                metrics.count("hits")
                metrics.observe("stage.y", 0.001)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("hits") == 16000
        assert metrics.stages["stage.y"].count == 16000
