"""A thin, lifecycle-disciplined process pool.

Wraps :class:`concurrent.futures.ProcessPoolExecutor` with the three
properties the executor layer needs and the stdlib class leaves implicit:

* **Order-preserving map.**  ``WorkerPool.map`` yields results in task
  order regardless of which worker finishes first — the keystone of the
  determinism contract (records come back in the same order serial
  execution would produce them).
* **Explicit, idempotent close.**  Pools hold OS processes; leaking one
  leaks processes until interpreter exit.  ``close()`` (and ``with``)
  shuts the executor down; calling it twice is fine; submitting after
  close raises immediately instead of hanging.
* **A pinned start method.**  On platforms with ``fork`` the pool uses it
  (workers inherit the imported modules, so startup is milliseconds);
  elsewhere ``spawn``.  Pinning the choice keeps worker behaviour — and
  thus measured throughput — identical across call sites.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator

__all__ = ["WorkerPool", "default_mp_context"]


def default_mp_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (fast, inherits imports), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class WorkerPool:
    """A closed-by-default process pool with order-preserving ``map``.

    Parameters
    ----------
    workers:
        Number of worker processes (≥ 1).
    mp_context:
        A multiprocessing context or start-method name; defaults to
        :func:`default_mp_context`.
    initializer, initargs:
        Run once in each worker at startup (e.g. seeding a cache).
    """

    def __init__(
        self,
        workers: int,
        *,
        mp_context: multiprocessing.context.BaseContext | str | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self.workers = int(workers)
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp_context or default_mp_context(),
            initializer=initializer,
            initargs=initargs,
        )

    # -- execution -------------------------------------------------------
    def _require(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise RuntimeError("WorkerPool is closed")
        return self._executor

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        """Schedule one call; returns its future."""
        return self._require().submit(fn, *args, **kwargs)

    def map(
        self,
        fn: Callable[..., Any],
        iterable: Iterable[Any],
        *,
        chunksize: int = 1,
    ) -> Iterator[Any]:
        """Apply *fn* across *iterable*; results yield in input order.

        Input order is a guarantee (inherited from
        ``ProcessPoolExecutor.map``), not an accident — callers rely on it
        for deterministic result assembly.
        """
        return self._require().map(fn, iterable, chunksize=chunksize)

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._executor is None

    def close(self) -> None:
        """Shut the executor down, waiting for in-flight tasks (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"WorkerPool(workers={self.workers}, {state})"
