"""Streaming corpus optimization and structural dedup.

:meth:`AnalysisEngine.optimize_stream` must agree item-for-item with
:meth:`optimize_many` (modulo yield order under a pool), survive poisoned
entries mid-stream, and fan representative results out to structural
twins without re-running them -- in both the batch and streaming paths.
"""

from __future__ import annotations

import os

import pytest

from repro import api
from repro.corpus import CorpusConfig, iter_corpus
from repro.engine import AnalysisEngine, BatchError
from repro.ir.builder import NestBuilder
from repro.ir.nodes import LoopNest
from repro.machine.presets import dec_alpha

def _twin(name, outer="J", inner="I", array="A"):
    b = NestBuilder(name)
    j, i = b.loops((outer, 0, "N"), (inner, 0, "M"))
    b.assign(b.ref(array, j), b.ref(array, j) + b.ref("B", i))
    return b.build()

@pytest.fixture(scope="module")
def corpus():
    return list(iter_corpus(CorpusConfig(seed=42), count=12))

def _by_index(items):
    return sorted(items, key=lambda item: item.index)

def _decisions(items):
    return [(item.index, item.name, item.ok,
             item.result.unroll if item.ok else item.error)
            for item in _by_index(items)]

class TestBatchDedup:
    def test_twins_fan_out_from_one_run(self):
        engine = AnalysisEngine()
        nests = [_twin("a"), _twin("b", outer="JJ"), _twin("c"),
                 _twin("z", array="Z")]
        report = engine.optimize_many(nests, dec_alpha(), bound=3)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["engine.dedup.hits"] == 2
        # Only the two distinct structures were analyzed.
        assert counters["cache.tables.miss"] == 2
        assert counters.get("cache.tables.hit", 0) == 0
        assert [item.name for item in report.items] == ["a", "b", "c", "z"]
        assert all(item.ok for item in report.items)
        decisions = {item.name: item.result.unroll for item in report.items}
        assert decisions["a"] == decisions["b"] == decisions["c"]
        # Fanned items report the caller's nest, not the representative's.
        twins = {item.name: item.result.nest.name for item in report.items}
        assert twins == {"a": "a", "b": "b", "c": "c", "z": "z"}

    def test_dedup_matches_undeduplicated_decisions(self, corpus):
        doubled = list(corpus) + list(corpus)
        machine = dec_alpha()
        engine = AnalysisEngine()
        report = engine.optimize_many(doubled, machine, bound=2)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["engine.dedup.hits"] >= len(corpus)
        reference = AnalysisEngine(ugs_cache=False).optimize_many(
            list(corpus), machine, bound=2)
        want = [item.result.unroll for item in reference.items]
        got = [item.result.unroll for item in report.items]
        assert got == want + want

    def test_dedup_with_parallel_workers(self, corpus):
        doubled = list(corpus) + list(corpus)
        engine = AnalysisEngine()
        report = engine.optimize_many(doubled, dec_alpha(), bound=2,
                                      workers=2)
        assert [item.index for item in report.items] == \
            list(range(len(doubled)))
        half = len(corpus)
        firsts = [item.result.unroll for item in report.items[:half]]
        seconds = [item.result.unroll for item in report.items[half:]]
        assert firsts == seconds
        # The pool changes nothing the caller can see.
        serial_engine = AnalysisEngine()
        serial = serial_engine.optimize_many(doubled, dec_alpha(), bound=2)
        assert _decisions(report.items) == _decisions(serial.items)
        assert engine.metrics.counter("engine.dedup.hits") == \
            serial_engine.metrics.counter("engine.dedup.hits")

    def test_parallel_batch_spreads_over_chunks(self, corpus):
        engine = AnalysisEngine()
        report = engine.optimize_many(corpus[:4], dec_alpha(), bound=2,
                                      workers=2)
        assert all(item.ok for item in report.items)
        counters = engine.metrics.snapshot()["counters"]
        # The chunk size follows the batch: four nests over two workers
        # must not travel as one chunk to one worker (unless the sandbox
        # forced the in-process fallback, which is counted too).
        assert counters.get("stream.chunks", 0) >= 2 or \
            counters.get("batch.pool_fallback", 0) > 0

class TestStreamSerial:
    def test_matches_optimize_many(self, corpus):
        machine = dec_alpha()
        want = AnalysisEngine().optimize_many(corpus, machine, bound=2)
        engine = AnalysisEngine()
        got = list(engine.optimize_stream(iter(corpus), machine, bound=2))
        assert _decisions(got) == _decisions(want.items)
        # Serial streaming preserves input order as it goes.
        assert [item.index for item in got] == list(range(len(corpus)))
        counters = engine.metrics.snapshot()["counters"]
        assert counters["stream.runs"] == 1
        assert counters["stream.items"] == len(corpus)

    def test_poisoned_entries_are_reported_items(self, corpus):
        engine = AnalysisEngine()
        nests = [corpus[0], 42, BatchError("bad", "no such nest"),
                 corpus[1]]
        got = list(engine.optimize_stream(iter(nests), dec_alpha(),
                                          bound=2))
        assert [item.ok for item in got] == [True, False, False, True]
        assert "not a loop nest" in got[1].error
        assert got[2].error == "no such nest"

    def test_twins_dedup_within_window(self):
        engine = AnalysisEngine()
        nests = [_twin("a"), _twin("b"), _twin("z", array="Z"), _twin("c")]
        got = list(engine.optimize_stream(iter(nests), dec_alpha(),
                                          bound=2))
        counters = engine.metrics.snapshot()["counters"]
        assert counters["engine.dedup.hits"] == 2
        assert counters["stream.items"] == 2
        assert [item.name for item in got] == ["a", "b", "z", "c"]
        assert got[1].result.nest.name == "b"
        assert got[0].result.unroll == got[1].result.unroll

    def test_window_of_one_forgets(self):
        engine = AnalysisEngine()
        nests = [_twin("a"), _twin("z", array="Z"), _twin("b")]
        list(engine.optimize_stream(iter(nests), dec_alpha(), bound=2,
                                    window=1))
        counters = engine.metrics.snapshot()["counters"]
        # "a" was evicted from the 1-slot window by "z", so "b" re-ran.
        assert counters.get("engine.dedup.hits", 0) == 0
        assert counters["stream.items"] == 3

    def test_lazy_consumption(self, corpus):
        """The stream pulls from the source as it yields -- nothing
        materializes the corpus up front."""
        pulled = []

        def source():
            for nest in corpus:
                pulled.append(nest.name)
                yield nest

        stream = AnalysisEngine().optimize_stream(source(), dec_alpha(),
                                                  bound=2)
        first = next(stream)
        assert first.ok
        assert len(pulled) == 1
        stream.close()

class TestStreamParallel:
    def test_matches_optimize_many(self, corpus):
        machine = dec_alpha()
        want = AnalysisEngine().optimize_many(corpus, machine, bound=2)
        engine = AnalysisEngine()
        got = list(engine.optimize_stream(iter(corpus), machine, bound=2,
                                          workers=2, chunk_size=3))
        assert _decisions(got) == _decisions(want.items)
        counters = engine.metrics.snapshot()["counters"]
        # Either the pool ran (chunks counted) or the sandbox forced the
        # serial fallback (counted too) -- both deliver every item.
        assert counters.get("stream.chunks", 0) > 0 or \
            counters.get("batch.pool_fallback", 0) > 0

    def test_twins_against_in_flight_chunks(self):
        engine = AnalysisEngine()
        nests = [_twin("a"), _twin("b"), _twin("z", array="Z"), _twin("c")]
        got = list(engine.optimize_stream(iter(nests), dec_alpha(),
                                          bound=2, workers=2,
                                          chunk_size=2))
        counters = engine.metrics.snapshot()["counters"]
        assert counters["engine.dedup.hits"] == 2
        by_name = {item.name: item for item in got}
        assert set(by_name) == {"a", "b", "c", "z"}
        assert all(item.ok for item in got)
        assert by_name["a"].result.unroll == by_name["b"].result.unroll
        assert by_name["b"].result.nest.name == "b"

class _WorkerKiller(LoopNest):
    """A nest whose unpickling ends the pool worker that receives it."""

    def __reduce__(self):
        return (os._exit, (3,))

class TestBrokenPool:
    def test_dead_worker_fails_items_not_the_batch(self, corpus):
        killer = _WorkerKiller(corpus[0].name, corpus[0].loops,
                               corpus[0].body)
        nests = [killer] + list(corpus)
        report = AnalysisEngine().optimize_many(nests, dec_alpha(), bound=2,
                                                workers=2)
        assert [item.index for item in report.items] == \
            list(range(len(nests)))
        assert not report.items[0].ok
        assert report.items[0].error.startswith("worker failed: ")
        assert all(item.ok or item.error.startswith("worker failed: ")
                   for item in report.items)

class TestApiFacade:
    def test_optimize_stream_coerces_and_streams(self):
        got = list(api.optimize_stream(["jacobi", "nosuchkernel", "afold"],
                                       bound=3))
        assert [item.ok for item in got] == [True, False, True]
        assert got[0].name == "jacobi"
        assert "nosuchkernel" in got[1].error
        want = api.optimize("jacobi", bound=3)
        assert got[0].result.unroll == want.unroll

    def test_exported_from_package_root(self):
        import repro

        assert repro.optimize_stream is api.optimize_stream
