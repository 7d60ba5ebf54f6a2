"""Streaming corpus optimization and structural dedup.

:meth:`AnalysisEngine.optimize_stream` must agree item-for-item with
:meth:`optimize_many`, survive poisoned entries mid-stream, and fan
representative results out to structural twins without re-running them
-- in both the batch and streaming paths.
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

from repro import api
from repro.corpus import CorpusConfig, iter_corpus
from repro.engine import AnalysisEngine, BatchError
from repro.ir.builder import NestBuilder
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

    def test_workers_warn_and_run_in_process(self, corpus):
        """``workers`` still parses: a value above 1 warns once and runs
        the corpus in-process, with the decisions of ``workers=None``."""
        want = api.optimize_many(corpus, bound=2, engine=AnalysisEngine())
        api._WARNED.discard("optimize_many(workers=N)")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = api.optimize_many(corpus, bound=2, workers=2,
                                    engine=AnalysisEngine())
            assert multiprocessing.active_children() == []
        assert [w.category for w in caught] == [DeprecationWarning]
        assert "workers" in str(caught[0].message)
        assert _decisions(got.items) == _decisions(want.items)
        assert [item.index for item in got.items] == \
            list(range(len(corpus)))
