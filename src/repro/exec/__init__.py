"""repro.exec — the parallel campaign executor.

Batch execution of solver *cells* across worker processes with three
guarantees the analysis layer depends on:

* **Determinism** — per-cell seed leaves plus order-preserving result
  assembly make parallel output bit-identical to serial, for any worker
  count (:mod:`repro.exec.runner`).
* **Zero-copy instances** — each hypergraph is serialised once into a
  shared-memory block and attached (cached) by workers, instead of being
  pickled into every task (:mod:`repro.exec.shm`).
* **Telemetry that survives the process boundary** — workers capture
  spans/metrics locally and the parent splices them back into its own
  stream, so traces of parallel runs stay inspectable
  (:mod:`repro.exec.runner`).

Pools and runners hold OS processes and shared-memory blocks: always use
them as context managers or call ``close()``.
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
