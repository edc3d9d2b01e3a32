"""AsyncBatchExecutor: awaitable batches, per-cell failure isolation in both modes."""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.core import greedy_mis, karp_upfal_wigderson
from repro.exec.aio import AsyncBatchExecutor, CellOutcome
from repro.exec.runner import Cell
from repro.generators import uniform_hypergraph
from repro.obs import metrics

_INSTANCE = uniform_hypergraph(30, 60, 3, seed=7)


def _raise(H, seed, machine=None, **options):
    raise ValueError("solver exploded")


def _crash(H, seed, machine=None, **options):
    """Kill the worker process outright (pool-mode isolation tests)."""
    os._exit(1)


def _cells(fn=karp_upfal_wigderson, seeds=(0, 1, 2)):
    return [Cell(instance=_INSTANCE, fn=fn, seed=s, label=f"c{s}") for s in seeds]


class TestInProcess:
    def test_batch_matches_direct_solves(self):
        async def main():
            async with AsyncBatchExecutor() as executor:
                assert executor.workers == 0
                return await executor.solve_batch(_cells())

        outcomes = asyncio.run(main())
        assert all(isinstance(o, CellOutcome) and o.ok for o in outcomes)
        for seed, outcome in zip((0, 1, 2), outcomes):
            direct = karp_upfal_wigderson(_INSTANCE, seed)
            assert outcome.result is not None
            assert outcome.result.mis_size == direct.size
            assert np.array_equal(outcome.result.independent_set, direct.independent_set)
            assert outcome.result.label == f"c{seed}"
            assert outcome.result.wall_ns > 0

    def test_failing_cell_is_isolated(self):
        cells = [
            Cell(instance=_INSTANCE, fn=karp_upfal_wigderson, seed=0),
            Cell(instance=_INSTANCE, fn=_raise, seed=1),
            Cell(instance=_INSTANCE, fn=greedy_mis, seed=2),
        ]

        async def main():
            async with AsyncBatchExecutor() as executor:
                return await executor.solve_batch(cells)

        with metrics.isolated_registry() as registry:
            outcomes = asyncio.run(main())
            counters = registry.snapshot()["counters"]
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].result is None
        assert "ValueError: solver exploded" in (outcomes[1].error or "")
        assert counters["exec/cells_failed"] == 1
        assert counters["exec/cells_done"] == 3
        assert counters["exec/cells_scheduled"] == 3

    def test_empty_batch(self):
        async def main():
            async with AsyncBatchExecutor() as executor:
                return await executor.solve_batch([])

        assert asyncio.run(main()) == []

    def test_closed_executor_refuses(self):
        async def main():
            executor = AsyncBatchExecutor()
            executor.close()
            assert executor.closed
            with pytest.raises(RuntimeError, match="closed"):
                await executor.solve_batch(_cells())

        asyncio.run(main())

    def test_close_is_idempotent(self):
        executor = AsyncBatchExecutor()
        executor.close()
        executor.close()


class TestPool:
    def test_pool_results_bit_identical_to_serial(self):
        async def main():
            async with AsyncBatchExecutor(1) as executor:
                assert executor.workers == 1
                return await executor.solve_batch(_cells(seeds=(3, 4)))

        outcomes = asyncio.run(main())
        for seed, outcome in zip((3, 4), outcomes):
            direct = karp_upfal_wigderson(_INSTANCE, seed)
            assert outcome.ok and outcome.result is not None
            assert np.array_equal(outcome.result.independent_set, direct.independent_set)

    def test_worker_crash_fails_batch_and_rebuilds_pool(self):
        async def main():
            async with AsyncBatchExecutor(1) as executor:
                poisoned = await executor.solve_batch(_cells(fn=_crash, seeds=(0, 1)))
                healthy = await executor.solve_batch(_cells(seeds=(5,)))
                return poisoned, healthy

        with metrics.isolated_registry() as registry:
            poisoned, healthy = asyncio.run(main())
            counters = registry.snapshot()["counters"]
        # the whole in-flight batch is lost, as one error per cell
        assert [o.ok for o in poisoned] == [False, False]
        assert all("worker crashed" in (o.error or "") for o in poisoned)
        assert counters["exec/pool_rebuilds"] == 1
        # ...but the rebuilt pool serves the next batch normally
        assert len(healthy) == 1 and healthy[0].ok

    def test_failing_cell_is_isolated(self):
        cells = [
            Cell(instance=_INSTANCE, fn=karp_upfal_wigderson, seed=0),
            Cell(instance=_INSTANCE, fn=_raise, seed=1),
            Cell(instance=_INSTANCE, fn=greedy_mis, seed=2),
        ]

        async def main():
            async with AsyncBatchExecutor(1) as executor:
                return await executor.solve_batch(cells)

        with metrics.isolated_registry() as registry:
            outcomes = asyncio.run(main())
            counters = registry.snapshot()["counters"]
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "ValueError: solver exploded" in (outcomes[1].error or "")
        assert outcomes[2].result is not None
        assert np.array_equal(
            outcomes[2].result.independent_set, greedy_mis(_INSTANCE, 2).independent_set
        )
        assert counters["exec/cells_failed"] == 1
        assert "exec/pool_rebuilds" not in counters

    def test_solver_exception_in_worker_fails_batch_without_rebuild(self):
        async def main():
            async with AsyncBatchExecutor(1) as executor:
                return await executor.solve_batch(_cells(fn=_raise, seeds=(0,)))

        with metrics.isolated_registry() as registry:
            outcomes = asyncio.run(main())
            counters = registry.snapshot()["counters"]
        assert not outcomes[0].ok
        assert "ValueError" in (outcomes[0].error or "")
        assert "exec/pool_rebuilds" not in counters
