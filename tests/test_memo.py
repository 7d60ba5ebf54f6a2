"""The one memo behind every cache tier (repro.engine.memo)."""

import sys
import threading

import pytest

from repro.engine.disk import DiskTier
from repro.engine.memo import DiskBacking, Memo
from repro.engine.metrics import Metrics

def _backed(tmp_path, metrics):
    backing = DiskBacking(DiskTier(tmp_path), lambda key: f"t-{key}.txt",
                          str, lambda text, context: int(text))
    return Memo("demo", 2, metrics, backing)

class TestMemory:
    def test_lru_eviction_and_counters(self):
        metrics = Metrics()
        memo = Memo("demo", 2, metrics)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # "a" is now the most recent
        memo.put("c", 3)  # evicts "b"
        assert memo.get("b") is None
        assert len(memo) == 2
        assert metrics.counter("cache.demo.hit") == 1
        assert metrics.counter("cache.demo.miss") == 1

    def test_default_tells_a_stored_none_from_a_miss(self):
        memo = Memo("demo", 4)
        marker = object()
        memo.put("known", None)
        assert memo.get("known", marker) is None
        assert memo.get("unknown", marker) is marker

    def test_get_or_build_builds_once(self):
        calls = []
        memo = Memo("demo", 4, Metrics())
        for _ in range(3):
            assert memo.get_or_build("k", lambda: calls.append(1) or 7) == 7
        assert calls == [1]
        assert memo.metrics.counter("cache.demo.hit") == 2

    def test_capacity_is_read_live_and_must_be_positive(self):
        memo = Memo("demo", 4)
        for key in range(4):
            memo.put(key, key)
        memo.capacity = 1
        memo.put("last", 0)
        assert len(memo) == 1
        with pytest.raises(ValueError):
            Memo("demo", 0)

    def test_threads_never_overfill(self):
        memo = Memo("demo", 8, Metrics())
        errors = []

        def worker(offset):
            try:
                for n in range(2000):
                    memo.get_or_build((offset + n) % 24, lambda: n)
                    assert len(memo) <= 8
            except AssertionError as err:
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        counters = memo.metrics.snapshot()["counters"]
        assert counters["cache.demo.hit"] + counters["cache.demo.miss"] \
            == 6 * 2000

class TestDisk:
    def test_store_then_promote(self, tmp_path):
        writer = _backed(tmp_path, Metrics())
        writer.put("k", 41)
        assert writer.metrics.counter("cache.demo.disk_store") == 1
        reader = _backed(tmp_path, Metrics())
        assert reader.get("k") == 41
        assert reader.get("k") == 41  # the second probe is a memory hit
        assert reader.metrics.counter("cache.demo.hit") == 2
        assert reader.metrics.counter("cache.demo.disk_hit") == 1
        assert reader.metrics.stages["stage.disk_load"].count == 1

    def test_corrupt_entry_is_a_counted_miss_left_for_the_rebuild(
            self, tmp_path):
        (tmp_path / "t-k.txt").write_text("not a number")
        memo = _backed(tmp_path, Metrics())
        assert memo.get_or_build("k", lambda: 5) == 5
        assert memo.metrics.counter("cache.demo.disk_error") == 1
        assert memo.metrics.counter("cache.demo.miss") == 1
        assert (tmp_path / "t-k.txt").read_text() == "5"

    def test_failed_publish_is_a_disk_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        memo = _backed(blocker / "sub", Metrics())  # cannot mkdir here
        memo.put("k", 1)
        assert memo.get("k") == 1
        assert memo.metrics.counter("cache.demo.disk_error") == 1
        assert memo.metrics.counter("cache.demo.disk_store") == 0
