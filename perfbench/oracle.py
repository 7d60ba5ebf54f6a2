"""Engine-independent checks of the benchmark's answers.

* Decisions come from the Wolf-Maydan-Chen brute force
  (:func:`repro.baselines.brute_force.brute_force_choose`), which
  re-unrolls the body at every vector and shares no table code with the
  engine.  Its search box is derived here from the public dependence,
  safety and locality functions, never from an engine result.
* Transformed code is executed on the interpreter
  (:mod:`repro.ir.interp`, :func:`repro.ir.packed.run_packed`) and must
  leave the same arrays as the original nest.

Brute force costs seconds per nest, so the reference for
:data:`common.DEFAULT_SEED` is precomputed (``make_reference.py``) and
committed; other seeds check a seeded sample of small nests live.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from fractions import Fraction

from common import BOUND, DEFAULT_SEED, MAX_LOOPS, REFERENCE_DIR, TRIP

import numpy as np

from repro.baselines.brute_force import brute_force_choose
from repro.dependence.graph import build_dependence_graph
from repro.ir.interp import run_nest
from repro.ir.packed import run_packed
from repro.reuse.locality import loop_locality_scores
from repro.unroll.optimize import select_candidate_loops
from repro.unroll.safety import safe_unroll_bounds
from repro.unroll.space import UnrollSpace
from repro.unroll.transform import unroll_and_jam

#: Live brute force only on nests whose box materializes at most this
#: many body copies in total (sum over vectors of copies per vector).
LIVE_COPY_CAP = 60
LIVE_SAMPLE = 6
#: Transformed nests executed on the interpreter per run.
EXEC_SAMPLE = 6


def reference_space(nest, machine) -> UnrollSpace:
    """The paper's search box (section 4.5) from the public analyses."""
    graph = build_dependence_graph(nest, include_input=False)
    safety = safe_unroll_bounds(nest, graph)
    line = machine.cache_line_words
    scores = loop_locality_scores(nest, line_size=line)
    dims = select_candidate_loops(nest, safety, MAX_LOOPS, line, scores)
    return UnrollSpace(nest.depth, dims,
                       tuple(min(BOUND, safety[d]) for d in dims))


def box_copies(space: UnrollSpace) -> int:
    """Body copies brute force materializes over the whole box."""
    return math.prod(sum(range(1, b + 2)) for b in space.bounds)


def reference_decision(nest, machine) -> dict:
    space = reference_space(nest, machine)
    result = brute_force_choose(nest, machine, space, trip=TRIP)
    return {"dims": list(space.dims), "bounds": list(space.bounds),
            "unroll": list(result.unroll),
            "objective": str(result.objective)}


def load_reference(seed: int) -> dict[int, dict]:
    """The committed decisions for ``seed`` by stream index (empty when
    none is committed)."""
    path = REFERENCE_DIR / f"seed{seed}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return {}
    decisions = json.loads(path.read_text())["decisions"]
    return {int(index): decision for index, decision in decisions.items()}


class DecisionOracle:
    """Reference decisions for the nests of one seeded stream.

    Committed entries cover the default seed's inputs; for other nests a
    seeded sample of at most :data:`LIVE_SAMPLE` small ones (box of at
    most :data:`LIVE_COPY_CAP` copies) is brute-forced on demand.
    """

    def __init__(self, seed: int, machine):
        self.seed = seed
        self.machine = machine
        self.committed = load_reference(seed)
        self.live: dict[int, dict] = {}

    def covers(self, index: int) -> bool:
        return index in self.committed

    def sample(self, nests: dict[int, object]) -> list[int]:
        """Stream indices (of ``nests``) without a committed reference to
        check live: seeded, small boxes only."""
        candidates = sorted(i for i in nests if not self.covers(i))
        random.Random(self.seed * 7919 + len(nests)).shuffle(candidates)
        chosen: list[int] = []
        for i in candidates:
            if len(chosen) == LIVE_SAMPLE:
                break
            if (box_copies(reference_space(nests[i], self.machine))
                    <= LIVE_COPY_CAP):
                chosen.append(i)
        return sorted(chosen)

    def decision(self, index: int, nest) -> dict:
        if self.covers(index):
            return self.committed[index]
        if index not in self.live:
            self.live[index] = reference_decision(nest, self.machine)
        return self.live[index]


def matches(ref: dict, dims, bounds, unroll, objective) -> bool:
    """Whether an answer equals the reference: same box, same vector and
    same objective (``objective`` as a Fraction, or the float the wire
    carries)."""
    want = Fraction(ref["objective"])
    same_objective = (objective == want if isinstance(objective, Fraction)
                      else float(objective) == float(want))
    return (list(dims) == ref["dims"] and list(bounds) == ref["bounds"]
            and list(unroll) == ref["unroll"] and same_objective)


# -- execution on the interpreter ---------------------------------------------

def _arrays(nest, n: int, seed: int) -> dict:
    """Integer-valued inputs, one square array per name, wide enough for
    the corpus's +-2 offsets around a 1..n loop."""
    dims: dict[str, int] = {}
    for statement in nest.body:
        for ref in statement.array_reads() + statement.array_writes():
            dims[ref.array] = max(dims.get(ref.array, 0),
                                  len(ref.subscripts))
    rng = np.random.default_rng(zlib.crc32(f"{seed}:{nest.name}".encode()))
    return {name: rng.integers(-4, 5, size=(n + 5,) * rank).astype(float)
            for name, rank in dims.items()}


def _same(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[k], b[k]) for k in a)


def jammed_matches_original(nest, unroll, seed: int) -> bool:
    """Run the transformer's jammed nest with a trip count that every
    unrolled loop divides (so it needs no epilogue) against the original
    nest on the interpreter."""
    n = math.lcm(*(u + 1 for u in unroll))
    while n < 4:
        n *= 2
    base = _arrays(nest, n, seed)
    want = {k: v.copy() for k, v in base.items()}
    got = {k: v.copy() for k, v in base.items()}
    bindings = {name: n for name in nest.parameters()}
    run_nest(nest, bindings, want, {})
    run_nest(unroll_and_jam(nest, tuple(unroll)).main, bindings, got, {})
    return _same(want, got)


#: Trip count per nest depth for packed execution (epilogues included).
PACKED_N = {1: 17, 2: 9, 3: 6}


def packed_matches_original(nest, unroll, machine, seed: int) -> bool:
    """Run the SLP-packed unroll-and-jam (main nest plus rolled
    epilogues) against the original nest on the interpreter."""
    n = PACKED_N[nest.depth]
    base = _arrays(nest, n, seed)
    want = {k: v.copy() for k, v in base.items()}
    got = {k: v.copy() for k, v in base.items()}
    bindings = {name: n for name in nest.parameters()}
    run_nest(nest, bindings, want, {})
    run_packed(nest, tuple(unroll), bindings, got, {}, machine=machine)
    return _same(want, got)


def exec_sample(seed: int, indices: list[int]) -> list[int]:
    """A seeded sample of stream indices to execute on the interpreter."""
    rng = random.Random(seed * 104729 + len(indices))
    return sorted(rng.sample(indices, min(EXEC_SAMPLE, len(indices))))
