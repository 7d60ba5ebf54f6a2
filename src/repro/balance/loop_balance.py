"""Loop balance with the cache/prefetch term (section 3.2).

    beta_L = (M + max(m - p*c, 0) * lambda_m/lambda_c) / F

where M is the number of memory operations the (scalar-replaced, unrolled)
body issues per iteration, F its flops, m the main-memory accesses per
iteration from Equation 1, p the machine's prefetch-issue bandwidth and c
the estimated cycles one iteration takes.  Every prefetch the machine has
no bandwidth to issue becomes a cache miss costing lambda_m/lambda_c
memory-op equivalents.  With p = 0 every main-memory access pays the miss.

The "No Cache" configuration of Figures 8/9 (the model of Carr-Kennedy
TOPLAS'94) is the same formula with the miss term dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from typing import TYPE_CHECKING, Protocol

from repro.machine.model import MachineModel

if TYPE_CHECKING:  # avoid a circular import; only the type name is needed
    from repro.unroll.tables import UnrollPoint

class MissModel(Protocol):
    """Anything that can price a search point's misses per iteration."""

    def misses(self, point: "UnrollPoint") -> Fraction:
        ...

    def scaled_misses(self, memory_ops: list[int], cost: list[int],
                      denominator: int) -> tuple[list[int], int]:
        """:meth:`misses` at every box point in integers: given memory
        ops and the Equation-1 charge ``cost[i] / denominator`` per point,
        a column and its denominator."""
        ...

@dataclass(frozen=True)
class BalanceBreakdown:
    """Loop balance plus the intermediate terms, for reporting."""

    memory_ops: Fraction
    flops: Fraction
    misses: Fraction
    cycles: Fraction
    unserviced: Fraction
    miss_term: Fraction
    balance: Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

def estimated_cycles(memory_ops: Fraction, flops: Fraction,
                     machine: MachineModel) -> Fraction:
    """Resource-bound cycle estimate for one body iteration."""
    return max(memory_ops / machine.mem_issue,
               flops / machine.fp_issue,
               _ONE)

def loop_balance(point: "UnrollPoint", machine: MachineModel,
                 include_cache: bool = True,
                 miss_model: "MissModel | None" = None) -> BalanceBreakdown:
    """beta_L for the loop body described by ``point``.

    ``miss_model`` optionally replaces the binary Equation-1 miss charge
    (``point.cache_cost``) with a finer estimate -- e.g.
    :class:`repro.reuse.profile.AssocMissModel`, which adds the expected
    set-conflict misses of a concrete cache geometry.  ``None`` (the
    default) keeps the paper's model bit-for-bit.
    """
    memory_ops = point.memory_ops
    flops = max(point.flops, _ONE)
    if not include_cache:
        misses = _ZERO
    elif miss_model is not None:
        misses = miss_model.misses(point)
    else:
        misses = point.cache_cost
    cycles = estimated_cycles(memory_ops, flops, machine)
    if machine.prefetch_bandwidth:
        unserviced = max(misses - machine.prefetch_bandwidth * cycles, _ZERO)
    else:
        unserviced = max(misses, _ZERO)
    miss_term = unserviced * machine.miss_cost_ratio
    balance = (memory_ops + miss_term) / flops
    return BalanceBreakdown(memory_ops, flops, misses, cycles, unserviced,
                            miss_term, balance)

def objective(point: "UnrollPoint", machine: MachineModel,
              include_cache: bool = True,
              miss_model: "MissModel | None" = None) -> Fraction:
    """The optimization objective of section 3.3: distance from machine
    balance.  Smaller is better; zero means the loop matches the machine."""
    breakdown = loop_balance(point, machine, include_cache, miss_model)
    return abs(breakdown.balance - machine.balance)
