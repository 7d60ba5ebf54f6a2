"""Rebuild the committed brute-force reference for the default seed.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/seed<DEFAULT_SEED>.json``: one brute-force
decision (search box, unroll vector, exact objective) per stream index,
for the first :data:`COUNT` workload nests of the default seed
(``common.workload_nests``), on the DEC Alpha preset at bound 4, in two
worker processes.  Decisions already in the file are kept and not
recomputed.  Brute force materializes every unrolled body, so this takes
two to four seconds per nest on a 2 GHz core (about 40 minutes for 1380
nests on two cores); it is run once, not per benchmark run.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

from common import (BOUND, DEFAULT_SEED, MAX_LOOPS, REFERENCE_DIR, TRIP,
                    require_program, workload_nests)

require_program()

import oracle  # noqa: E402
from repro.machine.presets import dec_alpha  # noqa: E402

#: Nests covered: every input of both workloads at ``--seconds 30``
#: (``corpus_cold`` meets the most, ``PASSES`` x 174).
COUNT = 1740
WORKERS = 2


def _decide(indices: list[int]) -> list[tuple[int, dict]]:
    nests = workload_nests(DEFAULT_SEED, COUNT)
    machine = dec_alpha()
    return [(i, oracle.reference_decision(nests[i], machine))
            for i in indices]


def main() -> int:
    decisions = oracle.load_reference(DEFAULT_SEED)
    todo = [i for i in workload_nests(DEFAULT_SEED, COUNT)
            if i not in decisions]
    jobs = [todo[w::WORKERS] for w in range(WORKERS)]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS,
                             mp_context=context) as pool:
        for part in pool.map(_decide, jobs):
            decisions.update(part)
    doc = {
        "seed": DEFAULT_SEED, "machine": "alpha", "bound": BOUND,
        "max_loops": MAX_LOOPS, "trip": TRIP, "count": COUNT,
        "oracle": "repro.baselines.brute_force.brute_force_choose",
        "decisions": {str(i): decisions[i] for i in sorted(decisions)},
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"seed{DEFAULT_SEED}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {len(doc['decisions'])} decisions to {path.name}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
