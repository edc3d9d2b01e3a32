"""EREW PRAM cost model.

The paper's results are stated for the EREW PRAM: time = parallel depth,
processors = poly(m, n).  CPython cannot honestly demonstrate shared-memory
PRAM speedups (GIL), so this package accounts for the parallel cost of
each step rather than executing it in parallel (real parallel execution
is the campaign executor's job, :mod:`repro.exec`):

* **Accounting** (:mod:`repro.pram.machine`): algorithms describe each bulk
  step they perform to a :class:`~repro.pram.machine.Machine`; the
  :class:`~repro.pram.machine.CountingMachine` charges the canonical EREW
  costs (a broadcast or reduction over *n* items costs ``⌈log₂ n⌉`` depth,
  a scan ``2⌈log₂ n⌉``, an elementwise map ``1``) and accumulates depth,
  work, and the processor count implied by Brent's theorem.  The
  :class:`~repro.pram.machine.NullMachine` makes accounting free when not
  needed.
* **Primitives** (:mod:`repro.pram.primitives`): scan / reduce / compact
  implementations that both compute (via NumPy) and charge the machine.
"""

from repro.pram.machine import CostModel, CountingMachine, Machine, NullMachine, PhaseCost
from repro.pram.primitives import (
    broadcast,
    compact,
    exclusive_scan,
    inclusive_scan,
    pmap,
    preduce,
)
from repro.pram.bl_program import BLRoundProgram, run_bl_round_program
from repro.pram.simulator import AccessViolation, EREWSimulator, Instruction

__all__ = [
    "Machine",
    "CountingMachine",
    "NullMachine",
    "CostModel",
    "PhaseCost",
    "pmap",
    "preduce",
    "inclusive_scan",
    "exclusive_scan",
    "broadcast",
    "compact",
    "EREWSimulator",
    "Instruction",
    "AccessViolation",
    "BLRoundProgram",
    "run_bl_round_program",
]
