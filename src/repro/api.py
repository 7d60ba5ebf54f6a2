"""The public facade: uniform entry points over every input shape.

Callers hold nests in many forms -- a Table 2 kernel name, a DO-loop
source string, a path to a nest file, or an already-built
:class:`~repro.ir.nodes.LoopNest`.  This module owns the *one* coercion
helper (:func:`coerce_nest`) that every consumer (the CLI, the batch
engine, the experiments) goes through, and the four documented verbs:

* :func:`analyze` -- dependence graph, safety bounds, locality, UGS
  partition (an :class:`~repro.engine.NestArtifacts`);
* :func:`optimize` -- the paper's unroll-and-jam decision
  (an :class:`~repro.unroll.optimize.OptimizationResult`);
* :func:`optimize_many` -- a whole corpus through the batch engine
  (a :class:`~repro.engine.BatchReport`);
* :func:`transform` -- the transformed nest itself
  (an :class:`~repro.unroll.transform.UnrolledNest`).

All four accept the same nest shapes and accept machines as presets by
name (``"alpha"``, ``"pa"``, ...) or as :class:`MachineModel` objects.
They are re-exported from :mod:`repro`, so ``repro.optimize("jacobi")``
is the supported spelling of the common workflow.
"""

from __future__ import annotations

import difflib
import os
import pathlib
import warnings
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover -- type names only
    from repro.reuse.profile import NestReuseProfile

from repro.engine import (
    AnalysisEngine,
    BatchError,
    BatchReport,
    NestArtifacts,
)
from repro.ir.nodes import LoopNest, intern_nest
from repro.obs.trace import span as _span
from repro.ir.parser import ParseError, parse_nest
from repro.machine.model import MachineModel
from repro.machine.presets import (
    dec_alpha,
    future_wide,
    hp_pa_risc,
    mips_r10k,
    prefetching_machine,
)
from repro.unroll.optimize import OptimizationResult
from repro.unroll.space import DEFAULT_BOUND
from repro.unroll.transform import UnrolledNest, unroll_and_jam

__all__ = [
    "MACHINES",
    "NestResolutionError",
    "analyze",
    "coerce_machine",
    "coerce_nest",
    "coerce_remote_nest",
    "default_engine",
    "optimize",
    "optimize_many",
    "optimize_stream",
    "reuse_profile",
    "serialize_nest",
    "transform",
    "vectorize",
]

#: The machine presets addressable by name everywhere a machine is taken.
MACHINES = {
    "alpha": dec_alpha,
    "pa": hp_pa_risc,
    "prefetch": prefetching_machine,
    "mips": mips_r10k,
    "future": future_wide,
}

class NestResolutionError(ValueError):
    """A nest specification that could not be resolved, with a diagnosis
    that distinguishes *parse failures* from *unknown names*.

    ``kind`` is the machine-readable facet of that diagnosis (consumed by
    the serving layer's structured error responses):

    * ``"parse"``   -- the input was source text but does not parse;
    * ``"unknown"`` -- a name that matches no kernel and no file;
    * ``"io"``      -- a path that exists but cannot be read;
    * ``"invalid"`` -- a shape :func:`coerce_nest` does not accept at all.
    """

    def __init__(self, message: str, kind: str = "invalid"):
        super().__init__(message)
        self.kind = kind

# -- coercion (the one shared helper) ----------------------------------------

def _nest_from_path(path: pathlib.Path, name: str | None = None) -> LoopNest:
    try:
        text = path.read_text()
    except OSError as err:
        raise NestResolutionError(f"cannot read {path}: {err}",
                                  kind="io") from None
    try:
        return parse_nest(text, name=name or path.stem)
    except ParseError as err:
        # The file exists; say exactly where parsing stopped.
        raise NestResolutionError(
            f"{path} exists but does not parse: {err}", kind="parse") from None

def _looks_like_source(text: str) -> bool:
    upper = text.upper()
    return ("\n" in text or "ENDDO" in upper
            or upper.lstrip().startswith("DO "))

def coerce_nest(spec: "LoopNest | str | os.PathLike",
                name: str | None = None) -> LoopNest:
    """Resolve any accepted nest shape to a :class:`LoopNest`.

    Accepts, in order of precedence: a ``LoopNest``, a path object, a
    serialized nest mapping (``{"source": ..., "name": ...}``
    as produced by :func:`serialize_nest` -- the wire form the serving
    layer speaks), a DO-loop source string, a Table 2 kernel name, or a
    string path to a nest file.  Raises :class:`NestResolutionError` with
    a parser error and line number when a file or source string is
    malformed, or with a closest-match suggestion when a kernel name is
    unknown.

    Every result is interned (:func:`repro.ir.nodes.intern_nest`), a
    ``LoopNest`` argument included: the first nest of a given identity
    comes back as itself, and every later equal nest comes back as that
    first instance.  Two resolutions of the same structure so yield one
    shared node whose structural key is computed exactly once, which is
    what keeps the serving layer's per-request key derivation near-free.
    """
    return _coerce(spec, name, paths=True)

def coerce_remote_nest(spec: "LoopNest | str | Mapping",
                       name: str | None = None) -> LoopNest:
    """:func:`coerce_nest` without the file system, for a spec a client
    sent: a string resolves only as DO-loop source or a kernel name, so
    a served request can neither read a server-side file nor learn
    whether one exists (anything else is an ``"unknown"`` error, 404
    ``unknown_kernel`` on the wire)."""
    return _coerce(spec, name, paths=False)

def _coerce(spec, name: str | None, paths: bool) -> LoopNest:
    if isinstance(spec, LoopNest):
        return intern_nest(spec)
    if paths and isinstance(spec, os.PathLike):
        return intern_nest(_nest_from_path(pathlib.Path(spec), name))
    if isinstance(spec, Mapping):
        source = spec.get("source")
        if not isinstance(source, str):
            raise NestResolutionError(
                "a serialized nest needs a 'source' string of DO-loop text")
        label = spec.get("name") or name or "parsed"
        try:
            return intern_nest(parse_nest(source, name=str(label)))
        except ParseError as err:
            raise NestResolutionError(
                f"serialized nest does not parse: {err}", kind="parse") \
                from None
    if not isinstance(spec, str):
        raise NestResolutionError(
            f"cannot make a loop nest from {type(spec).__name__!s}")
    if _looks_like_source(spec):
        try:
            return intern_nest(parse_nest(spec, name=name or "parsed"))
        except ParseError as err:
            raise NestResolutionError(
                f"nest source does not parse: {err}", kind="parse") from None

    from repro.kernels import all_kernels, kernel_by_name

    try:
        return intern_nest(kernel_by_name(spec).nest)
    except KeyError:
        pass
    if paths and pathlib.Path(spec).exists():
        return intern_nest(_nest_from_path(pathlib.Path(spec), name))
    names = [kernel.name for kernel in all_kernels()]
    close = difflib.get_close_matches(spec, names, n=3, cutoff=0.5)
    hint = f"; did you mean {', '.join(close)}?" if close else \
        "; try 'python -m repro kernels' for the list"
    where = " (and no such file)" if paths else ""
    raise NestResolutionError(f"unknown kernel {spec!r}{where}{hint}",
                              kind="unknown")

def serialize_nest(nest: LoopNest) -> dict:
    """The JSON-ready wire form of a nest: ``{"name", "source"}``.

    ``source`` is the canonical printed DO-loop text, which
    :func:`coerce_nest` parses back; the round trip preserves the
    structural key, so serialized twins share every engine cache entry.
    """
    from repro.ir.printer import format_nest

    return {"name": nest.name, "source": format_nest(nest)}

@lru_cache(maxsize=None)
def _preset(name: str) -> MachineModel:
    """One shared instance per preset name, built on first use (the
    models are frozen, so every caller may hold the same one); an unknown
    name raises ``KeyError`` and is not cached."""
    return MACHINES[name]()

def coerce_machine(machine: "MachineModel | str") -> MachineModel:
    """A :class:`MachineModel` from a preset name or a model object.

    A name resolves to one shared preset instance per process."""
    if isinstance(machine, MachineModel):
        return machine
    if isinstance(machine, str):
        try:
            return _preset(machine)
        except KeyError:
            raise ValueError(f"unknown machine {machine!r}; choose from "
                             f"{sorted(MACHINES)}") from None
    raise ValueError(f"cannot make a machine from {type(machine).__name__!s}")

# -- the default engine -------------------------------------------------------

_DEFAULT_ENGINE: AnalysisEngine | None = None

def default_engine() -> AnalysisEngine:
    """The process-wide engine the facade verbs share (so repeated calls
    stay warm); create your own :class:`AnalysisEngine` for isolation."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = AnalysisEngine()
    return _DEFAULT_ENGINE

# -- the documented verbs -----------------------------------------------------

def analyze(nest_or_source, machine: "MachineModel | str" = "alpha",
            engine: AnalysisEngine | None = None) -> NestArtifacts:
    """Reuse/safety/dependence analysis of one nest, memoized."""
    with _span("api.analyze"):
        nest = coerce_nest(nest_or_source)
        model = coerce_machine(machine)
        engine = engine if engine is not None else default_engine()
        return engine.analyze(nest, model)

def optimize(nest_or_source, machine: "MachineModel | str" = "alpha",
             bound: int = DEFAULT_BOUND, max_loops: int = 2,
             include_cache: bool = True, trip: int = 100,
             cache_model: str = "binary",
             vectorize: bool = False,
             engine: AnalysisEngine | None = None) -> OptimizationResult:
    """The paper's unroll-and-jam decision for one nest (identical to
    :func:`repro.unroll.optimize.choose_unroll`, served from the cache).

    ``cache_model="assoc"`` swaps the binary Equation-1 miss charge for
    the reuse-distance profile's set-associative estimate on this
    machine's cache geometry (docs/REUSE.md).  ``vectorize=True`` ranks
    candidates by the SLP lane cost model instead of the balance
    objective (docs/VECTORIZE.md)."""
    with _span("api.optimize"):
        nest = coerce_nest(nest_or_source)
        model = coerce_machine(machine)
        engine = engine if engine is not None else default_engine()
        return engine.optimize(nest, model, bound=bound,
                               max_loops=max_loops,
                               include_cache=include_cache, trip=trip,
                               cache_model=cache_model,
                               vectorize=vectorize)

def vectorize(nest_or_source, machine: "MachineModel | str" = "future",
              unroll: Sequence[int] | None = None,
              bound: int = DEFAULT_BOUND, max_loops: int = 2,
              include_cache: bool = True, trip: int = 100,
              engine: AnalysisEngine | None = None):
    """Vectorization-aware unroll-and-jam (docs/VECTORIZE.md).

    Runs the search with the SLP lane cost objective
    (``vectorize=True``), then packs and costs the jammed body at the
    chosen unroll vector -- or at an explicit ``unroll`` when given.
    Returns ``(OptimizationResult, SimdReport)``.

    The default machine is ``"future"``: the vector-capable preset.  On
    a machine without a vector unit the search degrades to the scalar
    decision and the report contains no packs.
    """
    with _span("api.vectorize"):
        nest = coerce_nest(nest_or_source)
        model = coerce_machine(machine)
        engine = engine if engine is not None else default_engine()
        result = engine.optimize(nest, model, bound=bound,
                                 max_loops=max_loops,
                                 include_cache=include_cache, trip=trip,
                                 vectorize=True)
        at = tuple(unroll) if unroll is not None else result.unroll
        report = engine.simd_report(nest, model, at, trip=trip)
        return result, report

def reuse_profile(nest_or_source, machine: "MachineModel | str" = "alpha",
                  trip: int = 100,
                  engine: AnalysisEngine | None = None) -> "NestReuseProfile":
    """The static reuse-distance profile of one nest (docs/REUSE.md).

    Per-reference reuse-distance histograms derived from the UGS /
    localized-vector-space machinery, scaled to ``trip`` iterations per
    loop; feed the result's :meth:`miss_ratio` a
    :class:`repro.machine.cache.CacheSpec` to price any geometry.  The
    machine sets the cache-line size the distances are measured in."""
    with _span("api.reuse_profile"):
        nest = coerce_nest(nest_or_source)
        model = coerce_machine(machine)
        engine = engine if engine is not None else default_engine()
        return engine.reuse_profile(nest, model, trip=trip)

def _batch_entries(specs: Iterable) -> Iterator:
    """Coerce each spec lazily; one that fails to resolve becomes a
    :class:`BatchError` placeholder, which the engine reports as a
    failed item."""
    for index, spec in enumerate(specs):
        try:
            yield coerce_nest(spec)
        except NestResolutionError as err:
            label = spec if isinstance(spec, str) else \
                getattr(spec, "name", f"item{index}")
            yield BatchError(name=str(label), message=str(err))

#: What replaces ``workers=N``: the corpus verbs run in-process, and more
#: than one core is the cluster's job.
_MULTI_CORE = ("repro serve --workers N (docs/CLUSTER.md) for more than one "
               "core")

def optimize_many(specs: Sequence, machine: "MachineModel | str" = "alpha",
                  workers: int | None = None, bound: int = DEFAULT_BOUND,
                  max_loops: int = 2, include_cache: bool = True,
                  trip: int = 100,
                  engine: AnalysisEngine | None = None) -> BatchReport:
    """Optimize a corpus of nest specifications (any accepted shape)
    in-process.

    Specifications that fail to coerce become reported failures in the
    returned :class:`BatchReport`; the rest of the batch completes.
    ``workers`` is deprecated: a value above 1 warns and runs in-process.
    """
    if (workers or 1) > 1:
        warn_deprecated("optimize_many(workers=N)", _MULTI_CORE)
    with _span("api.optimize_many"):
        model = coerce_machine(machine)
        engine = engine if engine is not None else default_engine()
        return engine.optimize_many(
            list(_batch_entries(specs)), model, bound=bound,
            max_loops=max_loops, include_cache=include_cache, trip=trip)

def optimize_stream(specs, machine: "MachineModel | str" = "alpha",
                    workers: int | None = None, bound: int = DEFAULT_BOUND,
                    max_loops: int = 2, include_cache: bool = True,
                    trip: int = 100,
                    engine: AnalysisEngine | None = None):
    """Optimize an *iterable* corpus, yielding per-nest results in input
    order as they complete (the streaming sibling of
    :func:`optimize_many`).

    ``specs`` may be any iterable -- including a generator such as
    :func:`repro.corpus.iter_corpus` -- and is consumed lazily, so a
    100k-nest sweep never materializes its corpus or its result list.
    Yields :class:`repro.engine.BatchItem`.  Specifications that fail to
    coerce become reported failures, like in :func:`optimize_many`;
    ``workers`` is deprecated the same way.
    """
    if (workers or 1) > 1:
        warn_deprecated("optimize_stream(workers=N)", _MULTI_CORE)
    model = coerce_machine(machine)
    engine = engine if engine is not None else default_engine()
    with _span("api.optimize_stream"):
        yield from engine.optimize_stream(
            _batch_entries(specs), model, bound=bound, max_loops=max_loops,
            include_cache=include_cache, trip=trip)

def transform(nest_or_source, unroll: Sequence[int] | None = None,
              machine: "MachineModel | str" = "alpha",
              bound: int = DEFAULT_BOUND,
              engine: AnalysisEngine | None = None) -> UnrolledNest:
    """Unroll-and-jam a nest: by an explicit vector, or by the model's
    chosen vector when ``unroll`` is omitted."""
    with _span("api.transform"):
        nest = coerce_nest(nest_or_source)
        if unroll is None:
            unroll = optimize(nest, machine, bound=bound,
                              engine=engine).unroll
        return unroll_and_jam(nest, tuple(int(u) for u in unroll))

# -- deprecation plumbing -----------------------------------------------------

_WARNED: set[str] = set()

def warn_deprecated(old: str, new: str) -> None:
    """Emit a :class:`DeprecationWarning` for ``old`` exactly once per
    process (the contract the facade's shims are tested against)."""
    if old in _WARNED:
        return
    _WARNED.add(old)
    warnings.warn(f"{old} is deprecated; use {new} instead",
                  DeprecationWarning, stacklevel=3)
