"""Request coalescing, admission control and batch assembly.

The service's throughput lever is the same one inference servers pull:
don't solve per request, solve per *cell*.  A cell is the determinism
triple ``(content_hash, algorithm, seed)`` — every request with the same
triple wants the byte-identical answer, so concurrent duplicates attach
to one in-flight cell as extra *waiters* and a single solve resolves all
of them.

:class:`MicroBatcher` owns the pending state and the two protection
mechanisms:

* **Admission control** — the number of queued *requests* (waiters on
  undispatched cells) is bounded; past the bound, :meth:`submit` raises
  :class:`QueueFull` and the server answers ``rejected`` immediately.
  Overload therefore costs the client a round-trip, not a pile-up.
* **Deadlines** — each waiter carries an absolute expiry; at dispatch
  time :meth:`take_batch` drops expired waiters (they get an ``expired``
  response) and skips cells whose waiters *all* expired, so a stale
  backlog never wastes solver time.

Batches form by group commit: :meth:`take_batch` returns as soon as
anything is queued, and the server's dispatch loop awaits one batch at a
time, so what queues while a batch runs is the next batch.

Everything here runs on the server's event loop — single-threaded, so no
locks; the asyncio primitives (one Event) exist only to let the dispatch
loop sleep until work arrives.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import metrics as obs_metrics

__all__ = ["MicroBatcher", "PendingCell", "QueueFull", "Waiter"]

#: The coalescing key: (content_hash, algorithm, seed).
CellKey = tuple[str, str, int]


class QueueFull(Exception):
    """Admission control: the pending queue is at its bound (429 analogue)."""


@dataclass
class Waiter:
    """One request waiting on a cell's result."""

    request_id: str
    future: asyncio.Future
    #: Absolute monotonic expiry (``None`` = no deadline).
    expires_at: float | None
    #: Arrival timestamp (perf_counter_ns) for latency accounting.
    t_arrival_ns: int
    coalesced: bool = False

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


@dataclass
class PendingCell:
    """One coalesced unit of solver work plus everyone waiting on it."""

    key: CellKey
    #: Opaque work descriptor the server attaches (instance + solver fn);
    #: the batcher never looks inside it.
    work: Any
    waiters: list[Waiter] = field(default_factory=list)


class MicroBatcher:
    """Coalescing admission queue that hands out group-commit batches.

    Parameters
    ----------
    max_batch:
        Max cells per dispatched batch.
    max_pending:
        Admission bound on queued requests (waiters across undispatched
        cells; in-flight cells no longer count — their work is already
        committed).
    """

    def __init__(self, *, max_batch: int = 32, max_pending: int = 256):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1: {max_pending}")
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        #: Undispatched cells in arrival order (dict preserves insertion).
        self._queued: dict[CellKey, PendingCell] = {}
        #: Dispatched, unresolved cells — late duplicates still coalesce here.
        self._inflight: dict[CellKey, PendingCell] = {}
        self._pending_requests = 0
        self._nonempty = asyncio.Event()

    # -- introspection ---------------------------------------------------
    @property
    def depth(self) -> int:
        """Undispatched cells (the 'queue depth' service gauge)."""
        return len(self._queued)

    @property
    def pending_requests(self) -> int:
        """Waiters on undispatched cells (what admission control bounds)."""
        return self._pending_requests

    @property
    def inflight(self) -> int:
        """Dispatched cells not yet resolved."""
        return len(self._inflight)

    # -- submission (event-loop side) ------------------------------------
    def submit(
        self,
        key: CellKey,
        waiter: Waiter,
        make_work: Callable[[], Any],
    ) -> bool:
        """Attach *waiter* to the cell for *key*; returns ``True`` if coalesced.

        A queued or in-flight cell with the same key absorbs the waiter
        (no new work).  Otherwise *make_work* builds the cell's work
        descriptor and the cell joins the queue — unless the admission
        bound is hit first, in which case :class:`QueueFull` is raised
        and no state changes.
        """
        cell = self._queued.get(key) or self._inflight.get(key)
        if cell is not None:
            waiter.coalesced = True
            cell.waiters.append(waiter)
            if key in self._queued:
                self._pending_requests += 1
            obs_metrics.inc("service/coalesced")
            return True
        if self._pending_requests >= self.max_pending:
            obs_metrics.inc("service/rejected")
            raise QueueFull(
                f"queue full: {self._pending_requests} pending requests "
                f"(limit {self.max_pending})"
            )
        self._queued[key] = PendingCell(key=key, work=make_work(), waiters=[waiter])
        self._pending_requests += 1
        self._nonempty.set()
        return False

    # -- dispatch (dispatch-loop side) -----------------------------------
    async def take_batch(
        self, *, clock: Callable[[], float] = time.monotonic
    ) -> tuple[list[PendingCell], list[Waiter]]:
        """Wait for work, then move everything queued (up to ``max_batch``
        cells) in-flight at once.

        Returns ``(cells, expired)``: cells to dispatch (each with at
        least one live waiter) and the waiters whose deadlines passed
        while queued — the caller answers those with ``expired`` and must
        not solve for them.  Cells whose waiters all expired are dropped
        entirely (counted on ``service/cells_expired``).
        """
        await self._nonempty.wait()
        now = clock()
        cells: list[PendingCell] = []
        expired: list[Waiter] = []
        for key in list(self._queued):
            if len(cells) >= self.max_batch:
                break
            cell = self._queued.pop(key)
            self._pending_requests -= len(cell.waiters)
            live = [w for w in cell.waiters if not w.expired(now)]
            expired.extend(w for w in cell.waiters if w.expired(now))
            if not live:
                obs_metrics.inc("service/cells_expired")
                continue
            cell.waiters = live
            self._inflight[key] = cell
            cells.append(cell)
        if not self._queued:
            self._nonempty.clear()
        if expired:
            obs_metrics.inc("service/deadline_expired", len(expired))
        return cells, expired

    def resolve(self, cell: PendingCell) -> list[Waiter]:
        """Retire an in-flight cell; returns the waiters to answer.

        Waiters that coalesced onto the cell *after* dispatch are
        included — they were promised this very solve.
        """
        self._inflight.pop(cell.key, None)
        waiters, cell.waiters = cell.waiters, []
        return waiters
