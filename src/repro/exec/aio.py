"""Awaitable batch execution for the solve service.

The asyncio front door (:mod:`repro.service.server`) must never block its
event loop on a solve: :class:`AsyncBatchExecutor` runs
:meth:`~repro.exec.runner.ParallelRunner.cell_outcomes` on a worker
thread via :func:`asyncio.to_thread`.  It always owns a runner:
``workers=0`` runs the batch in this process, ``workers=N`` over N
worker processes, through the same cell body either way.

Failure isolation is the second job: a service must not let one poisoned
request take down every concurrent caller.  ``solve_batch`` therefore
returns one :class:`CellOutcome` per cell — result or error, never an
exception — with these guarantees in both modes:

* a cell whose solver or verifier raises fails only its own outcome;
* a worker crash (``BrokenProcessPool``, pool mode) fails every outcome
  of the *current* batch (their results are unrecoverable) and the pool
  is rebuilt before returning, so the next batch dispatches normally.

Batches are executed one at a time by design — the service's dispatch
loop is the pacing mechanism, and a single in-flight batch keeps the
shared tracer's span stack coherent (spans open/close from one dispatch
thread at a time).
"""

from __future__ import annotations

import asyncio
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

from repro.exec.runner import Cell, CellResult, ParallelRunner
from repro.obs import metrics as obs_metrics

__all__ = ["AsyncBatchExecutor", "CellOutcome"]


@dataclass(frozen=True)
class CellOutcome:
    """What one cell produced: a result or an error string, never both."""

    index: int
    result: CellResult | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class AsyncBatchExecutor:
    """Await batches of solver cells without blocking the event loop.

    Parameters
    ----------
    workers:
        ``None``/``0`` solves in-process; a positive count runs a
        :class:`ParallelRunner` with that many worker processes
        (shared-memory instance transfer, telemetry splice — everything
        ``run_cells`` provides).
    mp_context:
        Start method for the pool.

    Close explicitly (or use as an async context manager): pool mode
    holds worker processes.
    """

    def __init__(self, workers: int | None = None, *, mp_context=None):
        self._mp_context = mp_context
        self._runner = ParallelRunner(workers, mp_context=mp_context)

    @property
    def workers(self) -> int:
        """Worker process count (0 = in-process execution)."""
        return self._runner.workers

    # -- execution -------------------------------------------------------
    async def solve_batch(self, cells: Sequence[Cell]) -> list[CellOutcome]:
        """Solve every cell on a worker thread; one outcome per cell."""
        if not cells:
            return []
        if self.closed:
            raise RuntimeError("AsyncBatchExecutor is closed")
        return await asyncio.to_thread(self._solve, list(cells))

    def _solve(self, cells: list[Cell]) -> list[CellOutcome]:
        try:
            outcomes = self._runner.cell_outcomes(cells)
        except BrokenProcessPool as exc:
            # The batch's in-flight results died with the worker.  Rebuild
            # the pool so the *next* batch runs; fail only this one.
            obs_metrics.inc("exec/pool_rebuilds")
            try:
                self._runner.close()
            except Exception:  # noqa: BLE001 - a broken pool may refuse to close
                pass
            self._runner = ParallelRunner(self.workers, mp_context=self._mp_context)
            message = f"worker crashed mid-batch: {exc}"
            return [CellOutcome(i, None, message) for i in range(len(cells))]
        return [
            CellOutcome(i, None, f"{type(o).__name__}: {o}")
            if isinstance(o, Exception)
            else CellOutcome(i, o)
            for i, o in enumerate(outcomes)
        ]

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._runner.closed

    def close(self) -> None:
        """Close the runner and its pool, if any. Idempotent."""
        self._runner.close()

    async def __aenter__(self) -> "AsyncBatchExecutor":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
