"""repro.exec — the campaign executor.

Batch execution of solver *cells*, in-process or across worker
processes, with four guarantees the analysis layer depends on:

* **One cell body** — ``ParallelRunner(0)`` runs cells in this process
  through the same body its workers run, so every mode returns the same
  results, counters and trace shape (:mod:`repro.exec.runner`).
* **Determinism** — per-cell seed leaves plus order-preserving result
  assembly make parallel output bit-identical to in-process, for any
  worker count.
* **Zero-copy instances** — each hypergraph is serialised once into a
  shared-memory block and attached (cached) by workers, instead of being
  pickled into every task (:mod:`repro.exec.shm`).
* **Telemetry that survives the process boundary** — workers capture
  spans/metrics locally and the parent splices them back into its own
  stream, so traces of parallel runs stay inspectable.

A cell whose solver or verifier raises fails only itself
(``ParallelRunner.cell_outcomes``, :mod:`repro.exec.aio`).  Pools and
runners hold OS processes and shared-memory blocks: always use them as
context managers or call ``close()``.
"""

from repro.exec.aio import AsyncBatchExecutor, CellOutcome
from repro.exec.pool import WorkerPool, default_mp_context
from repro.exec.runner import Cell, CellResult, ParallelRunner, current_runner, use_runner
from repro.exec.shm import InstanceHandle, ShmArena, attach, detach_all
from repro.exec.workers import AUTO_SPEEDUP_FLOOR, resolve_workers

__all__ = [
    "AUTO_SPEEDUP_FLOOR",
    "AsyncBatchExecutor",
    "Cell",
    "CellOutcome",
    "CellResult",
    "InstanceHandle",
    "ParallelRunner",
    "ShmArena",
    "WorkerPool",
    "attach",
    "current_runner",
    "default_mp_context",
    "detach_all",
    "resolve_workers",
    "use_runner",
]
