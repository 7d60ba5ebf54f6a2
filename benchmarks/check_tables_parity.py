"""Parity of the keyed and pairwise analyses over the perfbench inputs.

For every uniformly generated set of the 1740 seed-1997 perfbench inputs
(``perfbench/common.workload_nests``) at bound 4, and of a seeded
200-input slice of them at bound 8 (the default bound), the tables that
:func:`repro.unroll.tables.build_tables` returns must be identical to the
union-find tables of :func:`counted_tables` (``tests/reference.py``): the
same ``base_cost`` and the same GTS, GSS, RRS and register count arrays.
The search box of each nest is the paper's (section 4.5), derived from the
public dependence, safety and locality analyses, on the ``alpha`` machine.
The integer locality scores of
:func:`repro.reuse.locality.loop_locality_scores` must equal the pairwise
Fraction scores of :func:`repro.reuse.locality.pairwise_locality_scores`
on every input.

A fixed list of hand-built inputs covers shapes no perfbench input has: a
definition that leads a later touch time in its stream, and strided
contiguous subscripts (``A(8*I,J)`` beside ``A(8*I+4,J)``).  At both
bounds their keyed tables must equal the union-find tables, and every
box point of at most 25 vectors must equal the brute-force measurement
of :func:`repro.baselines.brute_force.measure_unrolled`.

The decision pass ranks the search box of every input at bounds 4 and 8
on every preset machine: the integer keys of
:class:`repro.unroll.optimize.BoxRanking` must sort the register-feasible
vectors in the order of the Fraction scan :func:`reference_search`
(``tests/reference.py``), the decision must be the first of them, and
its objective must equal :func:`repro.balance.objective` at the chosen
point.

    python benchmarks/check_tables_parity.py

Prints the number of sets checked and exits 1 on any mismatch.  perfbench
is imported read-only, for its inputs.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

_REPO = pathlib.Path(__file__).resolve().parent.parent
for _path in (_REPO, _REPO / "src", _REPO / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from common import DEFAULT_SEED, MAX_LOOPS, TRIP, workload_nests  # noqa: E402

from repro.balance import objective  # noqa: E402
from repro.baselines.brute_force import measure_unrolled  # noqa: E402
from repro.dependence.graph import build_dependence_graph  # noqa: E402
from repro.engine import AnalysisEngine  # noqa: E402
from repro.ir.parser import parse_nest  # noqa: E402
from repro.machine.presets import (  # noqa: E402
    dec_alpha,
    future_wide,
    generous_register_machine,
    hp_pa_risc,
    mips_r10k,
    prefetching_machine,
)
from repro.reuse.locality import (  # noqa: E402
    innermost_localized_space,
    loop_locality_scores,
    pairwise_locality_scores,
    self_reuse_base,
)
from repro.reuse.ugs import partition_ugs  # noqa: E402
from repro.unroll.optimize import (  # noqa: E402
    BoxRanking,
    select_candidate_loops,
)
from repro.unroll.safety import safe_unroll_bounds  # noqa: E402
from repro.unroll.space import UnrollSpace  # noqa: E402
from repro.unroll.tables import build_tables  # noqa: E402
from tests.reference import counted_tables, reference_search  # noqa: E402

INPUTS = 1740
SLICE = 200
#: Boxes of at most this many vectors are also checked by brute force.
BRUTE_FORCE_VECTORS = 25

#: (name, unrolled dims, source).  The def ``A(I,K+1)`` leads its stream
#: and every copy along the unused J writes through; the strided sets
#: have their contiguous residues half a period apart (a full line either
#: way round the circle) or one word apart across the wrap.
HAND_BUILT = (
    ("def_led", (0, 1), """
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      A(I, K+1) = A(I, K) + A(I, K-1) * B(I, J)
      D(I, K) = A(I, K+2) + A(I-1, K)
    ENDDO
  ENDDO
ENDDO
"""),
    ("strided8", (0,), """
DO J = 1, N
  DO I = 1, N
    A(8*I, J) = A(8*I+4, J) + 1.0
  ENDDO
ENDDO
"""),
    ("strided16", (0,), """
DO J = 1, N
  DO I = 1, N
    A(16*I, J) = A(16*I+8, J) + A(16*I+15, J-1) + 1.0
  ENDDO
ENDDO
"""),
)

def search_space(nest, line: int, bound: int, scores) -> UnrollSpace:
    graph = build_dependence_graph(nest, include_input=False)
    safety = safe_unroll_bounds(nest, graph)
    dims = select_candidate_loops(nest, safety, MAX_LOOPS, line, scores)
    return UnrollSpace(nest.depth, dims,
                       tuple(min(bound, safety[d]) for d in dims))

def mismatches(nest, space: UnrollSpace, line: int) -> tuple[int, list[str]]:
    """(sets checked, what differed) for one nest over one box."""
    localized = innermost_localized_space(nest)
    sets = partition_ugs(nest)
    built = build_tables(nest, space, line_size=line, trip=TRIP, ugs=sets)
    wrong = []
    for entry in built.per_ugs:
        base, _, _ = self_reuse_base(entry.ugs.matrix, localized, line, TRIP)
        expected = counted_tables(entry.ugs, space, localized, line)
        got = (entry.gts, entry.gss, entry.rrs, entry.registers)
        if base != entry.base_cost:
            wrong.append(f"{nest.name} {entry.ugs.pretty()}: base_cost")
        for name, have, want in zip(("gts", "gss", "rrs", "registers"),
                                    got, expected):
            if have.counts != want.counts:
                wrong.append(f"{nest.name} {entry.ugs.pretty()}: {name}")
    return len(built.per_ugs), wrong

def measured_mismatches(nest, space: UnrollSpace, line: int) -> list[str]:
    """What differs between the tables and the brute-force measurement
    at any box point (boxes of at most BRUTE_FORCE_VECTORS vectors)."""
    if len(space) > BRUTE_FORCE_VECTORS:
        return []
    built = build_tables(nest, space, line_size=line, trip=TRIP)
    wrong = []
    for u in space:
        have = built.point(u)
        want = measure_unrolled(nest, u, line_size=line, trip=TRIP)
        for name in ("gts", "gss", "memory_ops", "registers", "cache_cost"):
            if getattr(have, name) != getattr(want, name):
                wrong.append(f"{nest.name} u={u}: {name} "
                             f"{getattr(have, name)} vs brute force "
                             f"{getattr(want, name)}")
    return wrong

def decision_mismatches(engine: AnalysisEngine, nest, machine,
                        bound: int) -> list[str]:
    """What differs between the integer ranking and the Fraction scan of
    one nest's search box on one machine."""
    result = engine.optimize(nest, machine, bound=bound)
    ranking = BoxRanking(result.tables, machine)
    have = [u for *_, u in sorted(ranking.keys())]
    want = [u for *_, u in sorted(reference_search(ranking))]
    wrong = []
    if have != want:
        wrong.append(f"{nest.name} {machine.name}: ranked {have[:3]}... "
                     f"vs Fraction {want[:3]}...")
    if want and result.unroll != want[0]:
        wrong.append(f"{nest.name} {machine.name}: chose {result.unroll} "
                     f"vs Fraction {want[0]}")
    point = result.tables.point(result.unroll)
    if result.objective != objective(point, machine):
        wrong.append(f"{nest.name} {machine.name}: objective "
                     f"{result.objective} vs {objective(point, machine)}")
    return wrong

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    line = dec_alpha().cache_line_words
    nests = workload_nests(args.seed, INPUTS)
    sliced = random.Random(args.seed).sample(sorted(nests), SLICE)
    failed = False

    started = time.monotonic()
    scores = {}
    for key in sorted(nests):
        scores[key] = loop_locality_scores(nests[key], line_size=line)
        want = pairwise_locality_scores(nests[key], line_size=line)
        if scores[key] != want:
            print(f"MISMATCH input {key}: locality scores {scores[key]} "
                  f"vs pairwise {want}")
            failed = True
    print(f"locality: {len(scores)} inputs checked "
          f"in {time.monotonic() - started:.1f}s")

    for bound, keys in ((4, sorted(nests)), (8, sorted(sliced))):
        started = time.monotonic()
        checked = 0
        for key in keys:
            nest = nests[key]
            space = search_space(nest, line, bound, scores[key])
            count, wrong = mismatches(nest, space, line)
            checked += count
            for what in wrong:
                print(f"MISMATCH bound {bound} input {key}: {what}")
            failed = failed or bool(wrong)
        print(f"bound {bound}: {checked} sets of {len(keys)} inputs checked "
              f"in {time.monotonic() - started:.1f}s")

    started = time.monotonic()
    checked = 0
    for name, dims, source in HAND_BUILT:
        nest = parse_nest(source, name=name)
        for bound in (4, 8):
            space = UnrollSpace(nest.depth, dims, tuple(bound for _ in dims))
            count, wrong = mismatches(nest, space, line)
            wrong += measured_mismatches(nest, space, line)
            checked += count
            for what in wrong:
                print(f"MISMATCH bound {bound} hand-built: {what}")
            failed = failed or bool(wrong)
    print(f"hand-built: {checked} sets of {len(HAND_BUILT)} inputs checked "
          f"at bounds 4 and 8 in {time.monotonic() - started:.1f}s")

    started = time.monotonic()
    machines = (dec_alpha(), hp_pa_risc(), prefetching_machine(),
                generous_register_machine(), mips_r10k(), future_wide(),
                dec_alpha().with_registers(8))
    engine = AnalysisEngine()
    checked = 0
    for key in sorted(nests):
        for bound in (4, 8):
            for machine in machines:
                wrong = decision_mismatches(engine, nests[key], machine,
                                            bound)
                checked += 1
                for what in wrong:
                    print(f"MISMATCH bound {bound} input {key}: {what}")
                failed = failed or bool(wrong)
    print(f"decisions: {checked} searches ({len(nests)} inputs, bounds 4 "
          f"and 8, {len(machines)} machines) checked "
          f"in {time.monotonic() - started:.1f}s")
    print("tables parity:", "FAIL" if failed else "PASS")
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
