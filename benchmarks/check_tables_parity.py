"""Parity of the keyed and union-find table builds over the perfbench inputs.

For every uniformly generated set of the 1740 seed-1997 perfbench inputs
(``perfbench/common.workload_nests``) at bound 4, and of a seeded
200-input slice of them at bound 8 (the default bound), the tables that
:func:`repro.unroll.tables.build_tables` returns must be identical to the
union-find tables of :func:`repro.unroll.tables.counted_tables`: the same
``base_cost`` and the same GTS, GSS, RRS and register increment dicts.
The search box of each nest is the paper's (section 4.5), derived from the
public dependence, safety and locality analyses, on the ``alpha`` machine.

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
for _path in (_REPO / "src", _REPO / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from common import DEFAULT_SEED, MAX_LOOPS, TRIP, workload_nests  # noqa: E402

from repro.dependence.graph import build_dependence_graph  # noqa: E402
from repro.machine.presets import dec_alpha  # noqa: E402
from repro.reuse.locality import (  # noqa: E402
    innermost_localized_space,
    loop_locality_scores,
    self_reuse_base,
)
from repro.reuse.ugs import partition_ugs  # noqa: E402
from repro.unroll.optimize import select_candidate_loops  # noqa: E402
from repro.unroll.safety import safe_unroll_bounds  # noqa: E402
from repro.unroll.space import UnrollSpace  # noqa: E402
from repro.unroll.tables import build_tables, counted_tables  # noqa: E402

INPUTS = 1740
SLICE = 200

def search_space(nest, line: int, bound: int) -> UnrollSpace:
    graph = build_dependence_graph(nest, include_input=False)
    safety = safe_unroll_bounds(nest, graph)
    scores = loop_locality_scores(nest, line_size=line)
    dims = select_candidate_loops(nest, safety, MAX_LOOPS, line, scores)
    return UnrollSpace(nest.depth, dims,
                       tuple(min(bound, safety[d]) for d in dims))

def mismatches(nest, line: int, bound: int) -> tuple[int, list[str]]:
    """(sets checked, what differed) for one nest at one bound."""
    space = search_space(nest, line, bound)
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
            if have.increments != want.increments:
                wrong.append(f"{nest.name} {entry.ugs.pretty()}: {name}")
    return len(built.per_ugs), wrong

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    line = dec_alpha().cache_line_words
    nests = workload_nests(args.seed, INPUTS)
    sliced = random.Random(args.seed).sample(sorted(nests), SLICE)
    failed = False
    for bound, keys in ((4, sorted(nests)), (8, sorted(sliced))):
        started = time.monotonic()
        checked = 0
        for key in keys:
            count, wrong = mismatches(nests[key], line, bound)
            checked += count
            for what in wrong:
                print(f"MISMATCH bound {bound} input {key}: {what}")
            failed = failed or bool(wrong)
        print(f"bound {bound}: {checked} sets of {len(keys)} inputs checked "
              f"in {time.monotonic() - started:.1f}s")
    print("tables parity:", "FAIL" if failed else "PASS")
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
