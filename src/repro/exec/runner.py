"""The cell executor: one cell body, in-process or over worker processes.

A **cell** is one solver invocation: ``(instance, algorithm fn, seed,
options)``.  Campaigns, experiment trial loops, fuzz batteries and service
batches are grids of cells (or generic tasks) with no data dependencies
between them — embarrassingly parallel, except that the results must be
*bit-identical* whatever runs them.  The runner guarantees that by
construction:

* **One cell body.**  :func:`_solve_cell` attaches the instance, solves
  under a fresh :class:`~repro.pram.machine.CountingMachine` inside an
  ``exec/cell`` span, times the solve, verifies it and summarises the
  machine.  ``ParallelRunner(0)`` (or ``None``) calls it in this process;
  ``ParallelRunner(N)`` calls it in N worker processes.  Both modes
  return the same :class:`CellResult` fields, bar ``wall_ns``.
* **Seeds are inputs, not artifacts of scheduling.**  Every cell carries
  its own :class:`numpy.random.SeedSequence` leaf, derived by the caller
  from the campaign seed tree (:func:`repro.util.rng.spawn_seeds`).  A
  cell's randomness therefore depends only on its coordinates in the
  grid, never on which worker ran it or in what order.
* **Results assemble in submission order.**  The pool map preserves
  order, so the returned list matches the cell list index-for-index no
  matter the completion order.
* **A failing cell fails only itself.**  The cell body returns its
  solver's or verifier's exception as that cell's outcome
  (:meth:`ParallelRunner.cell_outcomes`); :meth:`ParallelRunner.run_cells`
  re-raises the first one.  A worker crash (``BrokenProcessPool``) still
  fails the whole call.

In pool mode instances travel by :class:`~repro.exec.shm.InstanceHandle`
— published once into shared memory by the parent, attached (and cached)
by each worker — so task payloads stay a few hundred bytes however large
the hypergraph is.  In-process mode has no pool, no arena and no pickling:
cells and tasks may be closures.

Telemetry: in-process, cells run under the ambient tracer and registry.
In a worker, the cell runs under a private :class:`~repro.obs.tracer.Tracer`
over a :class:`~repro.obs.events.MemorySink` (when the parent traces) and
an isolated metrics registry, and ships both back with the result.  The
parent merges the metrics into its default registry and splices the span
events (ids remapped, roots re-parented under the ``exec/run_cells``
span) into its own stream — so both modes leave the same trace tree.
"""

from __future__ import annotations

import pickle
import time
import traceback
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence, Union

import numpy as np

from repro.exec import shm
from repro.exec.pool import WorkerPool
from repro.exec.shm import InstanceHandle, ShmArena
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs import metrics as obs_metrics
from repro.obs.events import MemorySink
from repro.obs.metrics import default_registry, isolated_registry
from repro.obs.tracer import NULL_TRACER, Tracer, current_tracer, use_tracer
from repro.pram.machine import CountingMachine

__all__ = ["Cell", "CellResult", "ParallelRunner", "current_runner", "use_runner"]

SolverFn = Callable[..., Any]

#: Auto-chunking for :meth:`ParallelRunner.map_tasks`.  Aim each chunk at
#: this much measured work so the per-dispatch overhead (pickle + queue
#: round-trip, ~100µs) amortises on large grids, while chunks stay small
#: enough to load-balance.
CHUNK_TARGET_NS = 50_000_000
#: Items probed singly (per worker) before sizing chunks.
CHUNK_PROBE_FACTOR = 2
#: Below this many items per worker, chunking cannot beat plain dispatch.
CHUNK_MIN_FACTOR = 4


@dataclass(frozen=True)
class Cell:
    """One schedulable solver invocation.

    ``instance`` is either a published :class:`InstanceHandle` or a raw
    :class:`Hypergraph` (a pool runner publishes raw instances into a
    per-call arena automatically, deduplicated by content hash).  ``fn``
    has the solver signature ``fn(H, seed, *, machine=..., **options)``;
    a pool runner needs it picklable (a module-level callable).
    """

    instance: Union[InstanceHandle, Hypergraph]
    fn: SolverFn
    seed: Any
    options: dict[str, Any] = field(default_factory=dict)
    verify: bool = True
    keep_rounds: bool = False
    label: str = ""


@dataclass(frozen=True)
class CellResult:
    """What comes back from one cell, in submission order.

    ``depth``/``work`` are the PRAM cost totals of the cell's
    :class:`CountingMachine`; ``rounds`` is the per-round trace only when
    the cell asked for it (``keep_rounds``) — it dominates payload size.
    """

    index: int
    label: str
    mis_size: int
    num_rounds: int
    depth: int
    work: int
    wall_ns: int
    independent_set: np.ndarray
    machine: dict[str, int]
    meta: dict[str, Any]
    rounds: list[Any] | None = None


class ParallelRunner:
    """Runs cells and tasks in-process or over a :class:`WorkerPool`.

    Parameters
    ----------
    workers:
        Worker process count.  ``0`` or ``None`` runs every cell and task
        in this process, through the same bodies the workers run, with the
        same ``exec/*`` counters and the same ``exec/run_cells`` span.
    mp_context:
        Start method for the pool (defaults to ``fork`` where available).

    Use as a context manager, or call :meth:`close` explicitly — a pool
    runner holds worker processes.
    """

    def __init__(self, workers: int | None, *, mp_context: Any = None):
        self._workers = int(workers or 0)
        self._pool = (
            WorkerPool(self._workers, mp_context=mp_context) if self._workers else None
        )
        self._closed = False

    @property
    def workers(self) -> int:
        """Worker process count (0 = in-process)."""
        return self._workers

    # -- execution -------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell]) -> list[CellResult]:
        """Run every cell; return results in cell order.

        The first cell whose solver or verifier raised re-raises its
        exception here, and the cells after it are not waited for.  A
        worker crash raises ``BrokenProcessPool``; either way the per-call
        arena is torn down first, so no shared-memory block outlives the
        failure.
        """
        results = []
        with closing(self._outcomes(cells)) as outcomes:
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
                results.append(outcome)
        return results

    def cell_outcomes(self, cells: Sequence[Cell]) -> list[CellResult | Exception]:
        """Run every cell; one outcome per cell, in cell order.

        An outcome is the cell's :class:`CellResult`, or the exception its
        solver or verifier raised, so a failing cell fails only itself.  A
        worker crash still raises ``BrokenProcessPool`` for the whole call.
        """
        with closing(self._outcomes(cells)) as outcomes:
            return list(outcomes)

    def _outcomes(self, cells: Sequence[Cell]) -> Iterator[CellResult | Exception]:
        if not cells:
            return
        self._require_open()
        if self._pool is not None:
            _check_picklable(cells)
        tracer = current_tracer()
        registry = default_registry()
        registry.counter("exec/cells_scheduled").inc(len(cells))
        # Heartbeat utilisation divides by this: in-process is one worker.
        registry.gauge("exec/workers").set(max(self._workers, 1))
        ran = 0
        with ExitStack() as stack:
            span = stack.enter_context(
                tracer.span("exec/run_cells", cells=len(cells), workers=self._workers)
            )
            if self._pool is None:
                outcomes: Iterator[CellResult | Exception] = (
                    _solve_cell(i, cell, cell.instance) for i, cell in enumerate(cells)
                )
            else:
                arena = stack.enter_context(ShmArena())
                capture = _capture_config(tracer)
                payloads = [
                    (
                        i,
                        cell,
                        arena.publish(cell.instance)
                        if isinstance(cell.instance, Hypergraph)
                        else cell.instance,
                        capture,
                    )
                    for i, cell in enumerate(cells)
                ]
                # Stream-consume the (order-preserving) map so the progress
                # counters advance as results land — that's what a heartbeat
                # thread reads for liveness — instead of jumping at the end.
                outcomes = (
                    _absorb(raw, tracer, span)
                    for raw in self._pool.map(_run_cell, payloads)
                )
            for outcome in outcomes:
                registry.counter("exec/cells_done").inc()
                if isinstance(outcome, Exception):
                    registry.counter("exec/cells_failed").inc()
                else:
                    registry.counter("exec/cell_wall_ns").inc(outcome.wall_ns)
                ran += 1
                yield outcome
        obs_metrics.inc("exec/cells_run", ran)

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        label: str = "exec/map_tasks",
        chunksize: int | str | None = "auto",
    ) -> list[Any]:
        """Map *fn* over *items*; results in item order.

        The generic sibling of :meth:`run_cells` for workloads that are
        not solver cells (the fuzz campaign's per-case batteries): same
        order-preserving pool, same telemetry round-trip (worker spans
        and metrics spliced back into the parent stream), but no
        shared-memory instance transfer — items travel pickled, so keep
        them small.  A pool runner needs *fn* at module level; an
        exception *fn* raises propagates.

        ``chunksize`` controls dispatch granularity on large grids (pool
        mode only; in-process runs items one after another).  The default
        ``"auto"`` probes ``CHUNK_PROBE_FACTOR x workers`` items singly,
        then sizes contiguous chunks from the **measured** median per-item
        wall time toward :data:`CHUNK_TARGET_NS` of work per dispatch — so
        10k cheap tasks stop paying per-task round-trip overhead, while
        expensive tasks degrade gracefully to chunks of one.  Pass an
        ``int`` to fix the chunk size, or ``1``/``None`` to dispatch every
        item singly.  Chunks are contiguous slices and the pool map
        preserves order, so results always come back in item order
        regardless of granularity.
        """
        if not items:
            return []
        if not (chunksize == "auto" or chunksize is None or
                (isinstance(chunksize, int) and chunksize >= 1)):
            raise ValueError(f"chunksize must be 'auto', None or an int >= 1: "
                             f"{chunksize!r}")
        self._require_open()
        if self._pool is not None:
            try:
                pickle.dumps(fn)
            except Exception as exc:
                raise TypeError(
                    f"task function {fn!r} is not picklable (define it at module "
                    f"level; lambdas and closures cannot cross process "
                    f"boundaries): {exc}"
                ) from exc
        tracer = current_tracer()
        registry = default_registry()
        registry.counter("exec/tasks_scheduled").inc(len(items))
        registry.gauge("exec/workers").set(max(self._workers, 1))
        with tracer.span(label, tasks=len(items), workers=self._workers) as span:
            if self._pool is None:
                results = []
                for item in items:
                    (result,), wall_ns = _run_task_body(fn, [item])
                    registry.counter("exec/tasks_done").inc()
                    registry.counter("exec/task_wall_ns").inc(wall_ns)
                    results.append(result)
            else:
                results = self._dispatch_tasks(fn, items, tracer, span, chunksize)
        obs_metrics.inc("exec/tasks_run", len(results))
        return results

    def _dispatch_tasks(self, fn, items, tracer, span, chunksize) -> list[Any]:
        n = len(items)
        w = self._workers
        head: list[Any] = []
        if chunksize == "auto" and n < CHUNK_MIN_FACTOR * w:
            chunksize = None  # too few items for chunking to pay off
        if chunksize is None or chunksize == 1:
            return self._map_chunks(fn, items, 1, tracer, span, count_chunks=False)
        if chunksize == "auto":
            # Probe: run a couple of items per worker singly and measure.
            probe_n = min(CHUNK_PROBE_FACTOR * w, n)
            walls: list[int] = []
            head = self._map_chunks(
                fn, items[:probe_n], 1, tracer, span, count_chunks=False, walls=walls
            )
            median = sorted(walls)[len(walls) // 2]
            size = max(1, CHUNK_TARGET_NS // max(median, 1))
            # Never starve the pool: keep at least one chunk per worker.
            chunksize = int(min(size, max(1, -(-(n - probe_n) // w))))
            items = items[probe_n:]
        default_registry().gauge("exec/chunk_size").set(chunksize)
        return head + self._map_chunks(fn, items, chunksize, tracer, span, count_chunks=True)

    def _map_chunks(
        self, fn, items, size, tracer, span, *, count_chunks, walls=None
    ) -> list[Any]:
        """Dispatch contiguous *size*-item slices; return flat results.

        Per-dispatch wall times are appended to *walls* when given.
        """
        capture = _capture_config(tracer)
        payloads = [
            (fn, list(items[start : start + size]), capture)
            for start in range(0, len(items), size)
        ]
        registry = default_registry()
        results: list[Any] = []
        for raw in self._pool.map(_run_tasks, payloads):
            chunk_results, wall_ns = _absorb(raw, tracer, span)
            if count_chunks:
                registry.counter("exec/chunks_dispatched").inc()
            registry.counter("exec/tasks_done").inc(len(chunk_results))
            registry.counter("exec/task_wall_ns").inc(wall_ns)
            if walls is not None:
                walls.append(wall_ns)
            results.extend(chunk_results)
        return results

    # -- lifecycle -------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("ParallelRunner is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the pool, if any. Idempotent."""
        self._closed = True
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"ParallelRunner(workers={self.workers}, {state})"


def _check_picklable(cells: Sequence[Cell]) -> None:
    """Fail fast, with the function named, instead of deep in the pool."""
    seen: set[int] = set()
    for cell in cells:
        if id(cell.fn) in seen:
            continue
        seen.add(id(cell.fn))
        try:
            pickle.dumps(cell.fn)
        except Exception as exc:
            raise TypeError(
                f"cell function {cell.fn!r} is not picklable (define it at "
                f"module level; lambdas and closures cannot cross process "
                f"boundaries): {exc}"
            ) from exc


def _absorb(raw: dict[str, Any], tracer: Any, span: Any) -> Any:
    """Fold one worker reply's metrics and spans into the parent; return its value."""
    if raw["metrics"] is not None:
        default_registry().merge_snapshot(raw["metrics"])
    if raw["events"]:
        _replay_events(tracer, raw["events"], parent_id=span.span_id)
    return raw["value"]


def _replay_events(
    tracer: Any, events: list[dict[str, Any]], *, parent_id: int | None
) -> None:
    """Splice a worker's event stream into the parent tracer's sink.

    Worker span ids start at 1 per cell; a block of ids is reserved on the
    parent tracer and every id/parent shifted into it, keeping the merged
    stream collision-free.  Root spans of the cell are re-parented under
    the parent's ``exec/run_cells`` span so the offline tree keeps its
    shape.
    """
    max_id = max(
        (e.get("id", 0) for e in events if e.get("type") == "span"), default=0
    )
    base = tracer.reserve_ids(max_id)
    for event in events:
        event = dict(event)
        if event.get("type") == "span":
            event["id"] = event["id"] + base
            if "parent" in event:
                event["parent"] = event["parent"] + base
            elif parent_id is not None:
                event["parent"] = parent_id
        tracer.sink.emit(event)


# ---------------------------------------------------------------------------
# the bodies: run in-process as they are, in a worker under a capture wrapper
# ---------------------------------------------------------------------------
def _solve_cell(index: int, cell: Cell, instance: Any) -> CellResult | Exception:
    """The one cell body: the only place a cell's ``fn`` is called.

    Attaches the instance, solves under a fresh :class:`CountingMachine`
    inside an ``exec/cell`` span on the ambient tracer, times the solve,
    verifies it and summarises the machine.  An exception from the solver
    or the verifier is returned as the cell's outcome, not raised.
    """
    H = shm.attach(instance) if isinstance(instance, InstanceHandle) else instance
    machine = CountingMachine()
    try:
        t0 = time.perf_counter_ns()
        with current_tracer().span(
            "exec/cell", machine=machine, index=index, label=cell.label
        ):
            res = cell.fn(H, cell.seed, machine=machine, **cell.options)
        wall_ns = time.perf_counter_ns() - t0
        if cell.verify:
            res.verify(H)
    except Exception as exc:  # noqa: BLE001 - a failing cell fails only itself
        return exc
    machine_summary = (
        dict(res.machine)
        if res.machine is not None
        else {
            "depth": machine.depth,
            "work": machine.work,
            "max_processors": machine.max_processors,
        }
    )
    return CellResult(
        index=index,
        label=cell.label,
        mis_size=res.size,
        num_rounds=res.num_rounds,
        depth=int(machine_summary.get("depth", 0)),
        work=int(machine_summary.get("work", 0)),
        wall_ns=wall_ns,
        independent_set=res.independent_set,
        machine=machine_summary,
        meta=res.meta,
        rounds=res.rounds if cell.keep_rounds else None,
    )


def _run_task_body(fn: Callable[[Any], Any], chunk: list[Any]) -> tuple[list[Any], int]:
    """The task body: *fn* over a contiguous slice, and its wall time."""
    t0 = time.perf_counter_ns()
    results = [fn(item) for item in chunk]
    return results, time.perf_counter_ns() - t0


def _capture_config(tracer: Any) -> dict[str, Any] | None:
    """Telemetry-capture config shipped to workers (``None`` = no capture).

    A dict rather than a bool so attribution options (today: per-span
    allocation tracking) cross the process boundary with the payload.
    """
    if not tracer.enabled:
        return None
    return {"track_memory": bool(getattr(tracer, "track_memory", False))}


def _captured(
    capture: dict[str, Any] | None, body: Callable[..., Any], *args: Any
) -> dict[str, Any]:
    """Run *body* in a worker under an isolated registry and a private tracer.

    Never the tracer/registry inherited across ``fork``, which may hold
    the parent's open file descriptors.  Returns the body's ``value`` with
    the ``metrics`` snapshot and the captured span ``events`` to ship back.
    """
    with isolated_registry() as registry:
        sink = MemorySink() if capture is not None else None
        tracer = (
            Tracer(sink, registry=registry, track_memory=capture["track_memory"])
            if sink is not None
            else NULL_TRACER
        )
        try:
            with use_tracer(tracer):  # type: ignore[arg-type]
                value = body(*args)
        finally:
            if sink is not None:
                tracer.close()  # release GC hook / owned tracemalloc
        return {
            "value": value,
            "metrics": registry.snapshot(),
            "events": sink.events if sink is not None else [],
        }


def _run_cell(payload: tuple[int, Cell, Any, Any]) -> dict[str, Any]:
    """Run the cell body in a worker process, under :func:`_captured`."""
    index, cell, instance, capture = payload
    reply = _captured(capture, _solve_cell, index, cell, instance)
    if isinstance(reply["value"], Exception):
        reply["value"] = _portable(reply["value"])
    return reply


def _run_tasks(payload: tuple[Callable[[Any], Any], list[Any], Any]) -> dict[str, Any]:
    """Run the task body over one slice in a worker, under :func:`_captured`."""
    fn, chunk, capture = payload
    return _captured(capture, _run_task_body, fn, chunk)


def _portable(exc: Exception) -> Exception:
    """*exc*, fit to cross back to the parent.

    The worker's traceback does not pickle, so it rides along as a note.
    An exception that does not survive a pickle round trip would break
    the pool on the way back; it is replaced by a ``RuntimeError`` with
    its text.
    """
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure means it cannot cross
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    if hasattr(exc, "add_note"):
        exc.add_note("".join(traceback.format_exception(exc)).rstrip())
    return exc


# ---------------------------------------------------------------------------
# ambient runner
# ---------------------------------------------------------------------------
#: The runner experiment trial loops use (``None`` = an in-process one).
_current_runner: ParallelRunner | None = None


def current_runner() -> ParallelRunner | None:
    """The ambient runner installed by :func:`use_runner`, if any."""
    return _current_runner


@contextmanager
def use_runner(runner: ParallelRunner | None) -> Iterator[ParallelRunner | None]:
    """Install *runner* as the ambient runner for the block (nestable).

    Trial loops written against :func:`current_runner` transparently go
    parallel inside the block and stay in-process outside it — no
    signature changes down the call stack.
    """
    global _current_runner
    previous = _current_runner
    _current_runner = runner
    try:
        yield runner
    finally:
        _current_runner = previous
