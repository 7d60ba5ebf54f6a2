"""Hierarchical trace spans with cross-process propagation.

The span model is deliberately tiny -- close to OpenTelemetry's, minus
everything that needs a wire protocol:

* a **trace** is identified by a random 64-bit hex id and groups every
  span recorded on behalf of one logical operation (an ``optimize`` call,
  one HTTP request, one batch);
* a **span** is one timed region (``span("engine.analyze")``) with a
  process-unique id, an optional parent id, and free-form attributes;
* the *current* ``(trace_id, span_id)`` pair lives in a
  :mod:`contextvars` variable, so nesting works across ``await`` points
  and, via :func:`activate`, across executor threads and processes: the
  cluster router sends its context to a worker in request headers, so
  the worker's spans carry the router's trace id.

Finished spans land in a bounded ring buffer on the :class:`Tracer`
(oldest dropped first) and can be exported as Chrome ``trace_event``
JSON (load in ``chrome://tracing`` or https://ui.perfetto.dev) or, with
``REPRO_LOG=json``, emitted as one structured JSON log line per span.

The disabled path is a near-no-op: :func:`span` checks one attribute and
returns one shared null context that yields ``None`` -- no generator, no
span -- and :func:`activate` does the same for a ``None`` context, so
leaving tracing off costs well under the 2% budget on the engine
benchmarks (docs/OBSERVABILITY.md records the measurement).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import IO, ContextManager, Iterator

__all__ = [
    "LOG_ENV",
    "Span",
    "TRACE_BUFFER_ENV",
    "TRACE_ENV",
    "Tracer",
    "activate",
    "configure",
    "current_context",
    "current_span_id",
    "current_trace_id",
    "get_tracer",
    "set_tracer",
    "span",
]

#: Set to ``1``/``true``/``on`` to enable the global tracer at import.
TRACE_ENV = "REPRO_TRACE"
#: Set to ``json`` to emit one structured log line per finished span.
LOG_ENV = "REPRO_LOG"
#: Override the ring-buffer capacity (finished spans kept in memory).
TRACE_BUFFER_ENV = "REPRO_TRACE_BUFFER"

DEFAULT_BUFFER = 4096

#: The active ``(trace_id, span_id)`` pair, or ``None`` outside any span.
_context: contextvars.ContextVar[tuple[str, str] | None] = \
    contextvars.ContextVar("repro_trace_context", default=None)

def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "on",
                                                        "yes")

class Span:
    """One finished (or in-flight) timed region."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "start_us", "duration_us", "pid", "tid", "_t0_ns")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str | None, attrs: dict | None = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs or {}
        self.start_us = time.time_ns() // 1000  # wall epoch, microseconds
        self.duration_us = 0
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self._t0_ns = time.perf_counter_ns()

    def finish(self) -> None:
        self.duration_us = max(0, (time.perf_counter_ns() - self._t0_ns)
                               // 1000)

    def set(self, **attrs) -> None:
        """Attach attributes to an open span (JSON-serializable values)."""
        self.attrs.update(attrs)

    # -- serialization (exports) --------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    def to_chrome(self) -> dict:
        """A Chrome ``trace_event`` complete ("X") event."""
        args = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id:
            args["parent_id"] = self.parent_id
        args.update(self.attrs)
        return {
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": self.start_us,
            "dur": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
            "args": args,
        }

class Tracer:
    """Span factory plus the bounded ring buffer of finished spans.

    ``enabled`` is a plain attribute so the hot no-op check in
    :func:`span` stays one attribute load.  Recording is lock-protected:
    the serving layer finishes spans from executor threads concurrently
    with the asyncio dispatcher.
    """

    def __init__(self, enabled: bool | None = None,
                 buffer_size: int | None = None,
                 log_format: str | None = None,
                 log_stream: IO[str] | None = None):
        if enabled is None:
            enabled = _env_flag(TRACE_ENV)
        if buffer_size is None:
            try:
                buffer_size = int(os.environ.get(TRACE_BUFFER_ENV,
                                                 DEFAULT_BUFFER))
            except ValueError:
                buffer_size = DEFAULT_BUFFER
        if log_format is None:
            log_format = os.environ.get(LOG_ENV, "").strip().lower()
        self.enabled = bool(enabled)
        self.log_format = log_format
        self.log_stream = log_stream
        self._spans: deque[Span] = deque(maxlen=max(1, buffer_size))
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- ids -----------------------------------------------------------------

    def new_trace_id(self) -> str:
        return os.urandom(8).hex()

    def next_span_id(self) -> str:
        """Unique within the process *and* across the cluster's worker
        processes (the pid prefix keeps one trace's spans collision-free)."""
        return f"{os.getpid():x}-{next(self._ids):x}"

    # -- recording -----------------------------------------------------------

    def record(self, span_obj: Span) -> None:
        with self._lock:
            self._spans.append(span_obj)
        if self.log_format == "json":
            self._emit_log(span_obj)

    def _emit_log(self, span_obj: Span) -> None:
        stream = self.log_stream if self.log_stream is not None \
            else sys.stderr
        line = json.dumps({
            "event": "span",
            "ts": span_obj.start_us / 1e6,
            "name": span_obj.name,
            "trace_id": span_obj.trace_id,
            "span_id": span_obj.span_id,
            "parent_id": span_obj.parent_id,
            "duration_ms": span_obj.duration_us / 1000.0,
            "pid": span_obj.pid,
            "attrs": span_obj.attrs,
        }, sort_keys=True)
        try:
            stream.write(line + "\n")
        except (OSError, ValueError):
            pass  # a closed log stream never takes the operation down

    # -- reading -------------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- exports -------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The ring buffer as a Chrome ``trace_event`` document."""
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [span_obj.to_chrome()
                            for span_obj in self.spans()],
        }

    def write_chrome(self, path) -> None:
        import pathlib

        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.chrome_trace(), indent=2,
                                     sort_keys=True) + "\n")

# -- the global tracer and the span API ---------------------------------------

_TRACER = Tracer()

def get_tracer() -> Tracer:
    return _TRACER

def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer; returns the previous one (tests restore
    it)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous

def configure(enabled: bool | None = None,
              buffer_size: int | None = None,
              log_format: str | None = None,
              log_stream: IO[str] | None = None) -> Tracer:
    """Reconfigure the global tracer in place (``None`` keeps a field)."""
    tracer = _TRACER
    if enabled is not None:
        tracer.enabled = bool(enabled)
    if buffer_size is not None:
        with tracer._lock:
            tracer._spans = deque(tracer._spans, maxlen=max(1, buffer_size))
    if log_format is not None:
        tracer.log_format = log_format
    if log_stream is not None:
        tracer.log_stream = log_stream
    return tracer

def current_context() -> tuple[str, str] | None:
    """The active ``(trace_id, span_id)``, or ``None``."""
    return _context.get()

def current_trace_id() -> str | None:
    ctx = _context.get()
    return ctx[0] if ctx else None

def current_span_id() -> str | None:
    ctx = _context.get()
    return ctx[1] if ctx else None

#: The context :func:`span` and :func:`activate` return when there is
#: nothing to record or adopt: reusable, and it yields ``None``.
_NULL_CONTEXT = nullcontext()

def span(name: str, tracer: Tracer | None = None,
         **attrs) -> ContextManager[Span | None]:
    """Open a child span of the current context (or a new trace root).

    Yields the open :class:`Span` (``span.set(key=value)`` attaches
    attributes) -- or ``None`` when tracing is disabled, in which case
    the only cost is this check and a shared null context.
    """
    active = tracer if tracer is not None else _TRACER
    if not active.enabled:
        return _NULL_CONTEXT
    return _open_span(active, name, attrs)

@contextmanager
def _open_span(active: Tracer, name: str, attrs: dict) -> Iterator[Span]:
    ctx = _context.get()
    if ctx is None:
        trace_id, parent_id = active.new_trace_id(), None
    else:
        trace_id, parent_id = ctx
    span_obj = Span(name, trace_id, active.next_span_id(), parent_id, attrs)
    token = _context.set((trace_id, span_obj.span_id))
    try:
        yield span_obj
    finally:
        _context.reset(token)
        span_obj.finish()
        active.record(span_obj)

def activate(context: tuple[str, str] | None) -> ContextManager[None]:
    """Adopt a remote ``(trace_id, span_id)`` parent context -- the
    propagation primitive for executor threads and remote callers.  A
    ``None`` context is a no-op (the shared null context), so call sites
    need no branching."""
    if context is None:
        return _NULL_CONTEXT
    return _adopt(context)

@contextmanager
def _adopt(context: tuple[str, str]) -> Iterator[None]:
    token = _context.set((context[0], context[1]))
    try:
        yield
    finally:
        _context.reset(token)
