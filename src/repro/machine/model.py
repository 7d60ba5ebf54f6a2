"""The machine description consumed by the balance model and simulator.

Section 3.1: a machine's *balance* is the rate at which it can move data
from memory relative to the rate at which it retires floating-point
operations, ``beta_M = M_rate / F_rate``.  Loops whose own balance exceeds
beta_M are memory bound on that machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

@dataclass(frozen=True)
class MachineModel:
    """An ILP machine for the balance model and the simulator.

    Rates are per cycle.  ``cache_line_words`` and ``cache_size_words`` are
    in double-precision words (the paper assumes word size == fp precision,
    section 3.1).  ``prefetch_bandwidth`` is the number of prefetches the
    machine can issue per cycle (0 disables the prefetch term and makes
    every main-memory access a full miss).

    The ``vector_*`` block describes an optional SIMD unit for the
    ``repro.simd`` lane cost model (docs/VECTORIZE.md).
    ``vector_width_words`` is the number of double-precision lanes; 1
    means no vector unit and keeps every default code path scalar.
    ``vector_issue`` is vector fp operations retired per cycle;
    ``pack_cost``/``unpack_cost``/``splat_cost``/``gather_penalty`` are
    cycle charges for assembling lanes from scalars, extracting a lane,
    broadcasting a scalar, and gathering non-contiguous memory operands.
    """

    name: str
    mem_issue: Fraction  # memory operations issued per cycle (M rate)
    fp_issue: Fraction  # floating-point operations per cycle (F rate)
    registers: int  # floating-point register file size
    cache_size_words: int
    cache_line_words: int
    cache_assoc: int
    miss_penalty: int  # cycles per unserviced main-memory access (lambda_m)
    cache_access: int = 1  # cycles per cache hit (lambda_c)
    prefetch_bandwidth: Fraction = Fraction(0)
    #: pipeline latencies for the list-scheduler cost model
    fp_latency: int = 3
    divide_latency: int = 12
    load_latency: int = 2
    #: SIMD unit for the lane cost model; width 1 == scalar-only machine
    vector_width_words: int = 1
    vector_issue: Fraction = Fraction(1)
    pack_cost: int = 1
    unpack_cost: int = 1
    splat_cost: int = 1
    gather_penalty: int = 2

    def __post_init__(self) -> None:
        if self.mem_issue <= 0 or self.fp_issue <= 0:
            raise ValueError("issue rates must be positive")
        if self.registers <= 0:
            raise ValueError("register file must be non-empty")
        if self.cache_line_words <= 0 or self.cache_size_words <= 0:
            raise ValueError("cache geometry must be positive")
        if self.cache_size_words % (self.cache_line_words * self.cache_assoc):
            raise ValueError("cache size must be divisible by line*assoc")
        if self.miss_penalty < 0 or self.cache_access <= 0:
            raise ValueError("invalid latency parameters")
        if self.vector_width_words < 1 or self.vector_issue <= 0:
            raise ValueError("invalid vector unit parameters")
        if min(self.pack_cost, self.unpack_cost, self.splat_cost,
               self.gather_penalty) < 0:
            raise ValueError("vector overhead costs must be non-negative")

    @cached_property
    def balance(self) -> Fraction:
        """beta_M = M_rate / F_rate (section 3.1)."""
        return Fraction(self.mem_issue) / Fraction(self.fp_issue)

    @cached_property
    def miss_cost_ratio(self) -> Fraction:
        """lambda_m / lambda_c: the memory-op equivalents of one miss."""
        return Fraction(self.miss_penalty, self.cache_access)

    @property
    def has_vector_unit(self) -> bool:
        return self.vector_width_words > 1

    def with_registers(self, registers: int) -> "MachineModel":
        return replace(self, name=f"{self.name}-r{registers}",
                       registers=registers)

    def with_prefetch(self, bandwidth: Fraction) -> "MachineModel":
        return replace(self, name=f"{self.name}-pf{bandwidth}",
                       prefetch_bandwidth=Fraction(bandwidth))
