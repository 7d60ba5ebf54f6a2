"""``choose_unroll`` against frozen Table-2 decisions.

``tests/golden/table2_decisions.json`` holds, for the 19 Table-2 kernels
on ``dec_alpha`` and ``future_wide`` at bounds 4 and 8 (8 is
``DEFAULT_BOUND``), the unroll vector and the seven
:class:`repro.balance.loop_balance.BalanceBreakdown` fields as exact
``"n/d"`` strings.  The file was written by the original union-find and
Fraction-elimination algorithms, which agreed with the current integer
paths on every entry; any change to a decision or to a breakdown term
shows up here.
"""

import json
import pathlib
from dataclasses import fields
from fractions import Fraction

import pytest

from repro.balance.loop_balance import BalanceBreakdown
from repro.kernels import all_kernels
from repro.machine.presets import dec_alpha, future_wide
from repro.unroll.optimize import choose_unroll
from repro.unroll.space import DEFAULT_BOUND

GOLDEN = pathlib.Path(__file__).parent / "golden" / "table2_decisions.json"
MACHINES = {"dec_alpha": dec_alpha, "future_wide": future_wide}
BOUNDS = (4, DEFAULT_BOUND)

def golden_entries() -> list[dict]:
    return json.loads(GOLDEN.read_text())

def test_golden_covers_every_kernel_machine_and_bound():
    keys = {(e["kernel"], e["machine"], e["bound"]) for e in golden_entries()}
    kernels = [kernel.name for kernel in all_kernels()]
    assert len(kernels) == 19
    assert keys == {(k, m, b) for k in kernels for m in MACHINES
                    for b in BOUNDS}

@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_choose_unroll_matches_golden(machine_name, bound):
    machine = MACHINES[machine_name]()
    expected = {e["kernel"]: e for e in golden_entries()
                if e["machine"] == machine_name and e["bound"] == bound}
    for kernel in all_kernels():
        entry = expected[kernel.name]
        result = choose_unroll(kernel.nest, machine, bound=bound)
        assert list(result.unroll) == entry["unroll"], kernel.name
        for field in fields(BalanceBreakdown):
            assert getattr(result.breakdown, field.name) == \
                Fraction(entry[field.name]), (kernel.name, field.name)
