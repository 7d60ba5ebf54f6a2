"""repro: Unroll-and-Jam Using Uniformly Generated Sets (Carr & Guan,
MICRO 1997) -- a complete Python reproduction.

The documented entry points live in :mod:`repro.api` and accept kernel
names, DO-loop source strings, file paths, or built nests uniformly::

    import repro

    result = repro.optimize("jacobi", machine="alpha", bound=8)
    print(result.unroll, float(result.balance))

    transformed = repro.transform("jacobi", unroll=result.unroll)
    report = repro.optimize_many(["jacobi", "afold", "mmjik"])

Building nests programmatically still works the classic way::

    from repro import NestBuilder, choose_unroll, dec_alpha

    b = NestBuilder("intro")
    J, I = b.loops(("J", 0, "N"), ("I", 0, "M"))
    b.assign(b.ref("A", J), b.ref("A", J) + b.ref("B", I))
    nest = b.build()
    result = choose_unroll(nest, dec_alpha(), bound=8)

The long-lived HTTP analysis service lives in :mod:`repro.serve`
(``python -m repro serve``; see docs/SERVING.md); ``--workers N`` shards
it over N processes, the one way to use more than one core
(docs/CLUSTER.md).

See README.md for the tour, DESIGN.md for the system inventory,
docs/ENGINE.md for the batch analysis engine, and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from repro.api import (
    MACHINES,
    NestResolutionError,
    analyze,
    coerce_machine,
    coerce_nest,
    default_engine,
    optimize,
    optimize_many,
    optimize_stream,
    reuse_profile,
    transform,
    vectorize,
)
from repro.engine import AnalysisEngine, BatchReport
from repro.ir.builder import NestBuilder
from repro.ir.nodes import LoopNest
from repro.ir.parser import parse_nest
from repro.ir.printer import format_nest
from repro.machine.model import MachineModel
from repro.machine.presets import dec_alpha, hp_pa_risc
from repro.unroll.optimize import choose_unroll
from repro.unroll.tables import build_tables
from repro.unroll.transform import unroll_and_jam

__version__ = "1.2.0"

__all__ = [
    "AnalysisEngine",
    "BatchReport",
    "LoopNest",
    "MACHINES",
    "MachineModel",
    "NestBuilder",
    "NestResolutionError",
    "analyze",
    "build_tables",
    "choose_unroll",
    "coerce_machine",
    "coerce_nest",
    "dec_alpha",
    "default_engine",
    "format_nest",
    "hp_pa_risc",
    "optimize",
    "optimize_many",
    "optimize_stream",
    "parse_nest",
    "reuse_profile",
    "transform",
    "unroll_and_jam",
    "vectorize",
    "__version__",
]
