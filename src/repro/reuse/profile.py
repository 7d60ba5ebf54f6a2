"""Static per-reference reuse-distance profiles.

The Equation-1 model (``reuse/locality.py``) answers *whether* a reference
reuses data; this pass answers *how far apart* the two uses are, which is
what a set-associative cache actually cares about.  Following "Static
Reuse Profile Estimation for Array Applications" (PAPERS.md), the
distances come from the same UGS/localized-vector-space machinery rather
than from tracing:

* Every reuse of a reference ``A[H i + c]`` is a motion ``x`` in iteration
  space with ``H x = 0`` (self-temporal), ``H_S x = 0`` (self-spatial), or
  ``H x = c_other - c`` (group reuse).  With uniform symbolic trip count
  ``N`` per loop, the *delay* of that motion -- how many innermost
  iterations elapse between the two touches -- is the mixed-radix value
  ``sum_j x_j * N^(depth-1-j)``.
* The nest touches a near-constant number of *new* cache lines per
  innermost iteration: the Equation-1 cost under the innermost localized
  space (``lines_per_iteration``).  A reuse with delay ``D`` therefore has
  reuse distance ``D * lines_per_iteration`` distinct lines.
* Each reference occurrence gets a small histogram: the fraction of its
  accesses that reuse at the spatial distance (same line, earlier touch),
  the line-leading fraction that must wait for the temporal distance, and
  a cold residue at infinite distance.

Feeding these distances to :func:`repro.machine.cache.miss_probability`
turns the binary hit/miss charge into a set-associative miss probability;
``benchmarks/bench_reuse_profile.py`` validates the whole chain against
the executable simulator (docs/REUSE.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.ir.matrixform import RefOccurrence, constant_vector
from repro.ir.nodes import LoopNest
from repro.linalg import VectorSpace
from repro.machine.cache import CacheSpec, miss_probability
from repro.reuse.group import _solve_in_space, group_temporal_solution
from repro.reuse.locality import (
    DEFAULT_TRIP,
    innermost_localized_space,
    nest_memory_cost,
)
from repro.reuse.selfreuse import self_spatial_space, self_temporal_space
from repro.reuse.ugs import UniformlyGeneratedSet, partition_ugs

@dataclass(frozen=True)
class ReuseBin:
    """One slice of a reference's accesses at a common reuse distance.

    ``distance`` counts distinct cache lines between the two uses
    (``None`` = no prior use, a cold access).  ``fraction`` is the share
    of the reference's dynamic accesses in this bin; a reference's bins
    sum to 1.  ``kind`` records which mechanism produced the reuse
    (``self-temporal``, ``group-temporal``, ``self-spatial``,
    ``group-spatial``, or ``cold``) and ``delay`` its distance in
    innermost-loop iterations.
    """

    distance: float | None
    fraction: float
    kind: str
    delay: float | None = None

    def to_dict(self) -> dict:
        return {"distance": self.distance, "fraction": self.fraction,
                "kind": self.kind, "delay": self.delay}

@dataclass(frozen=True)
class ReferenceProfile:
    """The reuse-distance histogram of one reference occurrence."""

    array: str
    ref: str
    position: int
    is_write: bool
    bins: tuple[ReuseBin, ...]

    def miss_probability(self, spec: CacheSpec) -> float:
        """Expected miss probability of one dynamic access."""
        return sum(b.fraction * miss_probability(b.distance, spec)
                   for b in self.bins)

    def to_dict(self) -> dict:
        return {"array": self.array, "ref": self.ref,
                "position": self.position, "is_write": self.is_write,
                "bins": [b.to_dict() for b in self.bins]}

@dataclass(frozen=True)
class NestReuseProfile:
    """Reuse-distance profile of a whole nest.

    ``trip`` is the per-loop trip count the delays were scaled with; the
    profile of a nest about to run with ``N = 40`` should be built with
    ``trip=40``.  ``lines_per_iteration`` converts delays (iterations)
    into distances (distinct lines).
    """

    nest: str
    depth: int
    trip: int
    line_size: int
    lines_per_iteration: float
    refs: tuple[ReferenceProfile, ...]

    def miss_ratio(self, spec: CacheSpec) -> float:
        """Predicted miss ratio when every occurrence issues one access
        per innermost iteration (the ``scalar_replace=False`` simulator
        baseline)."""
        if not self.refs:
            return 0.0
        total = sum(ref.miss_probability(spec) for ref in self.refs)
        return total / len(self.refs)

    def misses_per_iteration(self, spec: CacheSpec) -> float:
        """Expected cache misses per innermost iteration."""
        return sum(ref.miss_probability(spec) for ref in self.refs)

    def conflict_probability(self, spec: CacheSpec) -> float:
        """P(an access the binary model calls a hit actually misses).

        Mass at infinite distance is the binary model's miss charge; the
        finite-distance mass is its hit charge.  The ratio of expected
        conflict/capacity misses inside that hit mass is the correction
        the profile adds on top of Equation 1.
        """
        hit_mass = conflict = 0.0
        for ref in self.refs:
            for b in ref.bins:
                if b.distance is None:
                    continue
                hit_mass += b.fraction
                conflict += b.fraction * miss_probability(b.distance, spec)
        if hit_mass <= 0.0:
            return 0.0
        return min(1.0, conflict / hit_mass)

    def cold_fraction(self) -> float:
        """Fraction of accesses with no prior use at any distance."""
        if not self.refs:
            return 0.0
        cold = sum(b.fraction for ref in self.refs for b in ref.bins
                   if b.distance is None)
        return cold / len(self.refs)

    def distance_quantile(self, q: float) -> float | None:
        """The ``q``-quantile of the finite reuse-distance distribution
        (``None`` when every access is cold)."""
        mass: list[tuple[float, float]] = sorted(
            (b.distance, b.fraction) for ref in self.refs for b in ref.bins
            if b.distance is not None and b.fraction > 0)
        total = sum(f for _, f in mass)
        if total <= 0.0:
            return None
        acc = 0.0
        for distance, fraction in mass:
            acc += fraction
            if acc >= q * total:
                return distance
        return mass[-1][0]

    def fraction_under(self, capacity_lines: float) -> float:
        """Fraction of accesses whose reuse distance fits in
        ``capacity_lines`` (e.g. the L1's line count): upper-bounds the
        hit ratio of a fully associative cache of that size."""
        if not self.refs:
            return 0.0
        under = sum(b.fraction for ref in self.refs for b in ref.bins
                    if b.distance is not None and b.distance < capacity_lines)
        return under / len(self.refs)

    def carried_fractions(self) -> list[float]:
        """Per-level fraction of reuse mass carried at each loop level
        (delay in [N^(d-1-k), N^(d-k)) is carried by loop k)."""
        out = [0.0] * self.depth
        total = 0.0
        for ref in self.refs:
            for b in ref.bins:
                if b.delay is None or b.fraction <= 0:
                    continue
                level = self.depth - 1
                for k in range(self.depth):
                    if b.delay < float(self.trip) ** (self.depth - 1 - k):
                        continue
                    level = k
                    break
                out[level] += b.fraction
                total += b.fraction
        if total > 0:
            out = [x / total for x in out]
        return out

    def to_dict(self) -> dict:
        """JSON-safe document (the serve layer's ``reuse_profile``)."""
        return {
            "nest": self.nest,
            "depth": self.depth,
            "trip": self.trip,
            "line_size": self.line_size,
            "lines_per_iteration": round(self.lines_per_iteration, 6),
            "cold_fraction": round(self.cold_fraction(), 6),
            "refs": [ref.to_dict() for ref in self.refs],
        }

class AssocMissModel:
    """Prices a search point's misses for one concrete cache geometry.

    Plugs into :func:`repro.balance.loop_balance.loop_balance` via its
    ``miss_model`` parameter.  The Equation-1 charge (``point.cache_cost``)
    stays as the capacity/compulsory floor; the accesses Equation 1 calls
    hits additionally pay the profile's set-conflict probability for this
    geometry, so candidate unroll vectors are ranked by their *expected*
    miss count on an associativity-limited cache rather than the binary
    hit/miss idealization.
    """

    def __init__(self, profile: NestReuseProfile, spec: CacheSpec):
        self.profile = profile
        self.spec = spec
        # Rational so the balance arithmetic (and its tie-breaking) stays
        # exact and deterministic.
        self.conflict = Fraction(
            round(profile.conflict_probability(spec) * 10 ** 9), 10 ** 9)

    @staticmethod
    def for_machine(profile: NestReuseProfile, machine) -> "AssocMissModel":
        return AssocMissModel(profile, CacheSpec.for_machine(machine))

    def misses(self, point) -> Fraction:
        eq1 = point.cache_cost
        would_hit = max(point.memory_ops - eq1, Fraction(0))
        return eq1 + would_hit * self.conflict

    def scaled_misses(self, memory_ops: list[int], cost: list[int],
                      denominator: int) -> tuple[list[int], int]:
        """:meth:`misses` at every box point of the search, in integers:
        ``eq1 + max(M - eq1, 0) * conflict`` over ``denominator`` times
        the conflict's denominator."""
        k, scale = self.conflict.numerator, self.conflict.denominator
        return ([c * scale + max(m * denominator - c, 0) * k
                 for m, c in zip(memory_ops, cost)], denominator * scale)

def _delay_of(vector: Sequence[Fraction | float], trip: int,
              depth: int) -> float:
    """Innermost iterations elapsed over an iteration-space motion: the
    mixed-radix value of the vector with uniform radix ``trip``."""
    total = 0.0
    for j, x in enumerate(vector):
        total += float(x) * float(trip) ** (depth - 1 - j)
    return total

def _integer_generators(space: VectorSpace) -> list[tuple[Fraction, ...]]:
    """The basis, scaled to primitive integer vectors."""
    out = []
    for vec in space.basis:
        denom = 1
        for x in vec:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        out.append(tuple(Fraction(v) for v in ints))
    return out

def _temporal_delay(ugs: UniformlyGeneratedSet, member: RefOccurrence,
                    full: VectorSpace, trip: int, depth: int) -> float | None:
    """Smallest delay at which ``member`` re-touches an element some
    earlier access (its own or a UGS sibling's) already touched."""
    best: float | None = None

    def consider(delay: float) -> None:
        nonlocal best
        if best is None or delay < best:
            best = delay

    for gen in _integer_generators(self_temporal_space(ugs.matrix)):
        delay = abs(_delay_of(gen, trip, depth))
        consider(max(delay, 1.0))
    c_m = constant_vector(member.ref)
    for other in ugs.members:
        if other is member:
            continue
        sol = group_temporal_solution(ugs, member, other, full)
        if not sol:
            continue
        # sol.vector solves H x = c_other - c_member: member's access at
        # iteration i matches other's at i - x, so member follows other
        # iff x is a *positive* delay (or zero with other textually first).
        delay = _delay_of(sol.vector, trip, depth)
        if delay > 0:
            consider(delay)
        elif delay == 0 and (constant_vector(other.ref) == c_m
                             and other.position < member.position):
            consider(0.0)
    return best

def _spatial_delay(ugs: UniformlyGeneratedSet, member: RefOccurrence,
                   full: VectorSpace, trip: int, depth: int,
                   line_size: int) -> tuple[float, float] | None:
    """Smallest delay at which ``member`` re-touches a *line* an earlier
    access touched, plus the fraction of accesses that lead onto a fresh
    line anyway (the miss fraction of the spatial mechanism)."""
    best: tuple[float, float] | None = None
    temporal = self_temporal_space(ugs.matrix)

    def consider(delay: float, miss_frac: float) -> None:
        # Mechanisms are alternatives; prefer the one covering the most
        # accesses (lowest line-leading fraction), then the shortest
        # delay.  The uncovered fraction usually ends up cold, so
        # coverage dominates the expected miss contribution.
        nonlocal best
        if best is None or (miss_frac, delay) < (best[1], best[0]):
            best = (delay, miss_frac)

    for gen in _integer_generators(self_spatial_space(ugs.matrix)):
        if temporal.contains(gen):
            continue  # pure temporal motion, handled there
        step = abs(float(ugs.matrix.matvec(list(gen))[0]))
        if step == 0.0 or step >= line_size:
            continue
        delay = abs(_delay_of(gen, trip, depth))
        consider(max(delay, 1.0), step / line_size)
    c_m = constant_vector(member.ref)
    for other in ugs.members:
        if other is member:
            continue
        delta = tuple(b - a for a, b in zip(c_m, constant_vector(other.ref)))
        truncated = (0,) + delta[1:]
        sol = _solve_in_space(ugs.spatial_matrix, truncated, full)
        if not sol:
            continue
        moved = float(ugs.matrix.matvec(list(sol.vector))[0])
        residual = abs(float(delta[0]) - moved)
        if residual == 0.0 or residual >= line_size:
            # Zero residual is group-*temporal* (counted there); a full
            # line apart never shares one.
            continue
        delay = _delay_of(sol.vector, trip, depth)
        if delay > 0:
            consider(delay, residual / line_size)
        elif delay == 0 and other.position < member.position:
            consider(0.0, residual / line_size)
    return best

def reuse_profile(nest: LoopNest, line_size: int = 4,
                  trip: int = DEFAULT_TRIP,
                  ugs: Sequence[UniformlyGeneratedSet] | None = None,
                  ) -> NestReuseProfile:
    """The static reuse-distance profile of ``nest``.

    ``trip`` should match the trip count the nest will actually run with
    when the profile is compared against a measurement; ``ugs`` optionally
    reuses a precomputed partition (e.g. the engine's memoized artifacts).
    """
    depth = nest.depth
    full = VectorSpace.full(depth)
    sets = list(partition_ugs(nest)) if ugs is None else list(ugs)
    lpi_fraction, _ = nest_memory_cost(nest, innermost_localized_space(nest),
                                       line_size, trip, ugs=sets)
    lpi = max(float(lpi_fraction), 1.0 / line_size)
    refs: list[ReferenceProfile] = []
    for group in sets:
        for member in group.members:
            d_t = _temporal_delay(group, member, full, trip, depth)
            spatial = _spatial_delay(group, member, full, trip, depth,
                                     line_size)
            bins: list[ReuseBin] = []
            if d_t is not None and (spatial is None or d_t <= spatial[0]):
                bins.append(ReuseBin(lpi * d_t, 1.0, "temporal", d_t))
            elif spatial is not None:
                d_s, miss_frac = spatial
                hit_frac = 1.0 - miss_frac
                if hit_frac > 0:
                    bins.append(ReuseBin(lpi * d_s, hit_frac, "spatial", d_s))
                if miss_frac > 0:
                    if d_t is not None:
                        bins.append(ReuseBin(lpi * d_t, miss_frac,
                                             "temporal", d_t))
                    else:
                        bins.append(ReuseBin(None, miss_frac, "cold", None))
            else:
                bins.append(ReuseBin(None, 1.0, "cold", None))
            refs.append(ReferenceProfile(
                array=member.array, ref=member.ref.pretty(),
                position=member.position, is_write=member.is_write,
                bins=tuple(bins)))
    refs.sort(key=lambda r: r.position)
    return NestReuseProfile(nest=nest.name, depth=depth, trip=trip,
                            line_size=line_size, lines_per_iteration=lpi,
                            refs=tuple(refs))
