"""Paths, workload constants and statistics shared by the benchmark files.

The benchmark runs from the root of a checkout and imports the program
from that checkout's ``src/`` only: :func:`require_program` refuses to
run anywhere the source tree is missing, so an installed copy of the
package can never be measured by mistake.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything a run writes (traces, the run log) goes here, in the checkout.
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

#: The seed whose brute-force reference is committed; any other seed gets
#: a seeded, size-capped live brute-force sample instead.
DEFAULT_SEED = 1997
#: Held out: never used while tuning the benchmark or a change; use it to
#: confirm a claim made on other seeds.
HELD_OUT_SEED = 4099

#: The request every workload makes: the paper's search box and trip.
BOUND = 4
MAX_LOOPS = 2
TRIP = 100

#: Repetitions per run: fresh interpreters for the in-process workload,
#: fresh servers for serve_mixed.  Each repetition's set-up is one
#: ``setup_s`` sample.  Each repetition gets its own slice of the seeded
#: inputs, every metric is measured per repetition, and the median over
#: the repetitions is reported.  The host's speed swings by up to 2x in
#: phases from seconds to minutes (CPU time tracks wall time): the median
#: drops repetitions that fall in a short slow phase, and the slices
#: average the run over many more inputs than one repetition holds.  A
#: per-item minimum would also drop the server's own waits (batcher
#: deadlines, executor contention), which belong to the program.
PASSES = 10
LOADS = 6
#: Extra interpreter starts after each corpus_cold pass that only set up
#: (imports and the engine) and exit: more ``setup_s`` samples, spread
#: over the run.
SETUP_STARTS = 1
#: Nests per pass, per second of ``--seconds``: about the cold rate on a
#: 2-core 2 GHz VM, so a run measures for about ``--seconds``.  The work
#: (and so every count and percentile rank) is fixed by seed and seconds.
#: The vector pass runs only inside corpus_cold's traced run.
NESTS_PER_SECOND = {"corpus_cold": 58, "corpus_vector": 20}
#: serve_mixed: requests per client per second of ``--seconds``, and the
#: share of requests that carry a nest the client has not sent before.
#: At 30 s a load has about 600 repeats, so the warm tail is p90 on every
#: seed instead of flipping between p90 and p99 around 1000 samples.
REQUESTS_PER_CLIENT_SECOND = 75
NEW_SHARE = 0.2

#: Percentile ladder for tails: the highest rank with at least ten
#: samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC.name}/repro; "
              "run from the root of a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """The environment for a program subprocess: the checkout's ``src``
    first on the import path, tracing and logging left off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    for name in ("REPRO_TRACE", "REPRO_LOG", "REPRO_CACHE_DIR"):
        env.pop(name, None)
    return env


#: Share of each (depth, array references // 3) cell among the corpus
#: generator's default draws, measured over 30,000 nests.  Depth and
#: reference count explain about 80% of the variance of per-nest time.
CELL_SHARES = {
    (1, 0): 27, (1, 1): 68, (1, 2): 78, (1, 3): 69, (1, 4): 63, (1, 5): 30,
    (1, 6): 4,
    (2, 0): 25, (2, 1): 54, (2, 2): 72, (2, 3): 58, (2, 4): 59, (2, 5): 39,
    (2, 6): 19, (2, 7): 7,
    (3, 0): 24, (3, 1): 49, (3, 2): 72, (3, 3): 54, (3, 4): 57, (3, 5): 41,
    (3, 6): 21, (3, 7): 11,
}


def _cell(nest) -> tuple[int, int]:
    refs = sum(len(s.array_reads()) + len(s.array_writes())
               for s in nest.body)
    return nest.depth, min(refs // 3, 7)


def workload_nests(seed: int, count: int) -> dict:
    """The workload's inputs: ``count`` nests of the seeded corpus stream
    keyed by stream index, stratified by :data:`CELL_SHARES`.

    Every seed gets the same number of nests in each cell (largest
    remainder allocation of the shares), filled from its stream in order.
    Without this a sample of a hundred nests varies in its share of
    deep, reference-heavy nests, and with it in work per nest, from seed
    to seed by more than the benchmark's bounds.
    """
    from repro.corpus import CorpusConfig, iter_corpus

    total = sum(CELL_SHARES.values())
    exact = {cell: count * share / total
             for cell, share in CELL_SHARES.items()}
    quota = {cell: int(x) for cell, x in exact.items()}
    by_remainder = sorted(exact, key=lambda c: (quota[c] - exact[c], c))
    for cell in by_remainder[:count - sum(quota.values())]:
        quota[cell] += 1
    chosen: dict = {}
    for index, nest in enumerate(iter_corpus(CorpusConfig(seed=seed),
                                             count=1 << 30)):
        if len(chosen) == count:
            break
        cell = _cell(nest)
        if quota.get(cell, 0) > 0:
            quota[cell] -= 1
            chosen[index] = nest
    return chosen


def nests_per_pass(workload: str, seconds: int) -> int:
    return max(20, round(seconds * NESTS_PER_SECOND[workload] / PASSES))


def pass_slices(seed: int, count: int) -> list[dict]:
    """The inputs of each of the :data:`PASSES` passes: consecutive runs
    of ``count`` nests of ``workload_nests(seed, count * PASSES)``."""
    nests = workload_nests(seed, count * PASSES)
    keys = list(nests)
    return [{i: nests[i] for i in keys[p * count:(p + 1) * count]}
            for p in range(PASSES)]


def requests_per_client(seconds: int) -> int:
    """Requests per client in one of the run's :data:`LOADS` loads."""
    return max(50, seconds * REQUESTS_PER_CLIENT_SECOND // LOADS)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_rank(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it (the median when there are fewer than 20)."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return 50.0


def tail(values: list[float]) -> tuple[float, float]:
    """``(rank, value)`` of the tail percentile of ``values``."""
    rank = tail_rank(len(values))
    return rank, percentile(values, rank)


def median(values: list[float]) -> float:
    return statistics.median(values)
