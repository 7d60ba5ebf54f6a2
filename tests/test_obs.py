"""The observability layer: spans, propagation, profiling.

Covers the tentpole contracts of :mod:`repro.obs`:

* span nesting and parent/child wiring;
* the bounded ring buffer (oldest spans dropped first);
* Chrome ``trace_event`` export structure;
* structured JSON log lines (``REPRO_LOG=json`` equivalent);
* the disabled fast path (``span(...)`` yields ``None``, records nothing);
* the opt-in profiler (gating, nesting, summary, write).
"""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.engine import AnalysisEngine
from repro.kernels import kernel_by_name
from repro.machine.presets import dec_alpha
from repro.obs import trace as trace_mod

@pytest.fixture
def tracer():
    """A fresh enabled tracer installed globally; restored afterwards."""
    fresh = obs.Tracer(enabled=True)
    previous = obs.set_tracer(fresh)
    try:
        yield fresh
    finally:
        obs.set_tracer(previous)

@pytest.fixture
def profiler():
    fresh = obs.Profiler(enabled=True)
    previous = obs.set_profiler(fresh)
    try:
        yield fresh
    finally:
        obs.set_profiler(previous)

def _by_name(tracer: obs.Tracer) -> dict[str, obs.Span]:
    spans = {}
    for span_obj in tracer.spans():
        spans.setdefault(span_obj.name, span_obj)
    return spans

class TestSpans:
    def test_nesting_builds_parent_child_links(self, tracer):
        with obs.span("outer") as outer:
            assert obs.current_trace_id() == outer.trace_id
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            with obs.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None
        assert obs.current_context() is None
        # Children finish (and record) before the parent.
        assert [s.name for s in tracer.spans()] == ["inner", "sibling",
                                                    "outer"]

    def test_attributes_and_durations(self, tracer):
        with obs.span("work", kind="test") as span_obj:
            span_obj.set(items=3)
        recorded = tracer.spans()[0]
        assert recorded.attrs == {"kind": "test", "items": 3}
        assert recorded.duration_us >= 0
        assert recorded.start_us > 0

    def test_separate_roots_get_separate_trace_ids(self, tracer):
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        first, second = tracer.spans()
        assert first.trace_id != second.trace_id

    def test_disabled_span_yields_none_and_records_nothing(self):
        disabled = obs.Tracer(enabled=False)
        previous = obs.set_tracer(disabled)
        try:
            with obs.span("invisible") as span_obj:
                assert span_obj is None
            assert obs.current_context() is None
        finally:
            obs.set_tracer(previous)
        assert len(disabled) == 0

    def test_disabled_span_is_one_shared_null_context(self):
        disabled = obs.Tracer(enabled=False)
        previous = obs.set_tracer(disabled)
        try:
            first = obs.span("a")
            assert obs.span("b", key=1) is first
            assert obs.activate(None) is first
            with first as inner:
                with first as nested:
                    assert inner is None and nested is None
        finally:
            obs.set_tracer(previous)
        assert len(disabled) == 0

    def test_ring_buffer_drops_oldest(self):
        small = obs.Tracer(enabled=True, buffer_size=5)
        previous = obs.set_tracer(small)
        try:
            for index in range(12):
                with obs.span(f"s{index}"):
                    pass
        finally:
            obs.set_tracer(previous)
        assert len(small) == 5
        assert [s.name for s in small.spans()] == [f"s{i}"
                                                   for i in range(7, 12)]

    def test_activate_adopts_remote_context(self, tracer):
        with obs.span("root") as root:
            remote = obs.current_context()
        with obs.activate(remote):
            with obs.span("adopted") as adopted:
                pass
        assert adopted.trace_id == root.trace_id
        assert adopted.parent_id == root.span_id
        # A None context is a no-op: the next span starts a new trace.
        with obs.activate(None):
            with obs.span("fresh") as fresh:
                pass
        assert fresh.parent_id is None

class TestExports:
    def test_chrome_trace_structure(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        doc = tracer.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int)
            assert event["args"]["trace_id"]
        inner = next(e for e in events if e["name"] == "inner")
        outer = next(e for e in events if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        # The document must be plain JSON.
        json.dumps(doc)

    def test_write_chrome(self, tracer, tmp_path):
        with obs.span("persisted"):
            pass
        target = tmp_path / "nested" / "trace.json"
        tracer.write_chrome(target)
        doc = json.loads(target.read_text())
        assert doc["traceEvents"][0]["name"] == "persisted"

    def test_json_log_lines(self):
        stream = io.StringIO()
        logging_tracer = obs.Tracer(enabled=True, log_format="json",
                                    log_stream=stream)
        previous = obs.set_tracer(logging_tracer)
        try:
            with obs.span("logged", detail="x"):
                pass
        finally:
            obs.set_tracer(previous)
        lines = [json.loads(line) for line in
                 stream.getvalue().strip().splitlines()]
        assert len(lines) == 1
        record = lines[0]
        assert record["event"] == "span"
        assert record["name"] == "logged"
        assert record["attrs"] == {"detail": "x"}
        assert record["trace_id"] and record["span_id"]
        assert record["duration_ms"] >= 0

    def test_closed_log_stream_does_not_raise(self):
        stream = io.StringIO()
        stream.close()
        logging_tracer = obs.Tracer(enabled=True, log_format="json",
                                    log_stream=stream)
        previous = obs.set_tracer(logging_tracer)
        try:
            with obs.span("survives"):
                pass
        finally:
            obs.set_tracer(previous)
        assert len(logging_tracer) == 1

class TestEngineIntegration:
    def test_analyze_records_stage_spans(self, tracer):
        engine = AnalysisEngine()
        with obs.span("test.root"):
            engine.analyze(kernel_by_name("jacobi").nest)
        names = {s.name for s in tracer.spans()}
        assert {"test.root", "engine.analyze", "engine.dependence_graph",
                "ugs.partition"} <= names
        spans = _by_name(tracer)
        assert spans["engine.analyze"].parent_id == \
            spans["test.root"].span_id
        assert spans["ugs.partition"].parent_id == \
            spans["engine.analyze"].span_id
        # Every span belongs to the one trace the root opened.
        assert {s.trace_id for s in tracer.spans()} == \
            {spans["test.root"].trace_id}

class TestProfiler:
    def test_disabled_profiler_records_nothing(self):
        quiet = obs.Profiler(enabled=False)
        with quiet.profile("stage.analyze"):
            sum(range(100))
        assert quiet.summary()["stages"] == {}
        assert quiet.summary()["enabled"] is False

    def test_summary_aggregates_calls_and_hot_functions(self, profiler):
        def busy():
            return sum(i * i for i in range(2000))

        for _ in range(3):
            with profiler.profile("stage.test"):
                busy()
        summary = profiler.summary()
        assert summary["enabled"] is True
        stage = summary["stages"]["stage.test"]
        assert stage["calls"] == 3
        assert stage["total_s"] > 0
        assert stage["top"], "expected hot functions"
        for entry in stage["top"]:
            assert set(entry) == {"function", "ncalls", "cumtime_s"}

    def test_nested_profile_gets_wall_time_only(self, profiler):
        with profiler.profile("outer"):
            with profiler.profile("inner"):
                sum(range(1000))
        summary = profiler.summary()["stages"]
        assert summary["outer"]["calls"] == 1
        assert summary["inner"]["calls"] == 1
        assert summary["inner"]["total_s"] > 0
        # cProfile cannot nest: the inner stage has no function table.
        assert summary["inner"]["top"] == []
        assert summary["outer"]["top"]

    def test_write_dumps_json(self, profiler, tmp_path):
        with profiler.profile("stage.io"):
            pass
        target = profiler.write(tmp_path / "out" / "p.profile.json")
        doc = json.loads(target.read_text())
        assert doc["stages"]["stage.io"]["calls"] == 1

    def test_engine_profiles_stages_when_enabled(self):
        profiler = obs.Profiler(enabled=True)
        engine = AnalysisEngine(profiler=profiler)
        engine.optimize(kernel_by_name("jacobi").nest, dec_alpha(), bound=2)
        stages = profiler.summary()["stages"]
        assert "stage.analyze" in stages
        assert "stage.optimize" in stages

class TestEnvConfiguration:
    def test_env_flags_control_fresh_tracer(self, monkeypatch):
        monkeypatch.setenv(trace_mod.TRACE_ENV, "1")
        monkeypatch.setenv(trace_mod.TRACE_BUFFER_ENV, "7")
        monkeypatch.setenv(trace_mod.LOG_ENV, "json")
        fresh = obs.Tracer()
        assert fresh.enabled
        assert fresh._spans.maxlen == 7
        assert fresh.log_format == "json"

    def test_env_off_by_default(self, monkeypatch):
        monkeypatch.delenv(trace_mod.TRACE_ENV, raising=False)
        assert not obs.Tracer().enabled

    def test_profile_env_flag(self, monkeypatch):
        monkeypatch.setenv(obs.PROFILE_ENV, "true")
        assert obs.Profiler().enabled
        monkeypatch.delenv(obs.PROFILE_ENV)
        assert not obs.Profiler().enabled

    def test_configure_updates_global_in_place(self):
        previous = obs.set_tracer(obs.Tracer(enabled=False))
        try:
            tracer = obs.configure(enabled=True, buffer_size=3)
            assert tracer is obs.get_tracer()
            for index in range(5):
                with obs.span(f"c{index}"):
                    pass
            assert len(tracer) == 3
        finally:
            obs.set_tracer(previous)
