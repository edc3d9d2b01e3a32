"""ParallelRunner: determinism, ordering, lifecycle, failure containment."""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core import greedy_mis, karp_upfal_wigderson
from repro.exec import Cell, ParallelRunner, current_runner, use_runner
from repro.generators import uniform_hypergraph
from repro.util.rng import spawn_seeds

#: Small but non-trivial: enough randomness to expose seed-tree mistakes.
_INSTANCE = uniform_hypergraph(30, 60, 3, seed=7)


def _make_cells(seed_key, repeats: int = 4) -> list[Cell]:
    """A fresh cell list — seeds re-derived per call (SeedSequence objects
    are consumed by use, so each execution mode needs its own leaves)."""
    seeds = spawn_seeds(seed_key, repeats)
    return [
        Cell(
            instance=_INSTANCE,
            fn=karp_upfal_wigderson,
            seed=s,
            label=f"kuw/{i}",
        )
        for i, s in enumerate(seeds)
    ]


def _serial_reference(seed_key, repeats: int = 4):
    out = []
    for s in spawn_seeds(seed_key, repeats):
        res = karp_upfal_wigderson(_INSTANCE, s)
        res.verify(_INSTANCE)
        out.append(res)
    return out


def _crash(H, seed, machine=None, **options):
    """A cell function that kills its worker outright (no exception to
    catch — the pool must surface BrokenProcessPool)."""
    os._exit(1)


def _raise(H, seed, machine=None, **options):
    raise ValueError("solver exploded")


class _KeywordError(Exception):
    """An exception that pickles but does not unpickle (keyword-only init)."""

    def __init__(self, *, reason: str):
        super().__init__(reason)


def _raise_keyword_error(H, seed, machine=None, **options):
    raise _KeywordError(reason="odd exception")


def _fields(result) -> dict:
    """Every CellResult field but the wall time, comparable with ``==``."""
    out = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "wall_ns"}
    out["independent_set"] = out["independent_set"].tolist()
    return out


class TestDeterminism:
    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_bit_identical_to_serial(self, workers):
        reference = _serial_reference(("exec-det", workers))
        with ParallelRunner(workers) as runner:
            results = runner.run_cells(_make_cells(("exec-det", workers)))
        assert [r.mis_size for r in results] == [r.size for r in reference]
        assert [r.num_rounds for r in results] == [r.num_rounds for r in reference]
        for got, want in zip(results, reference):
            assert np.array_equal(got.independent_set, want.independent_set)

    def test_worker_count_does_not_change_results(self):
        # Every mode runs the one cell body: all fields but wall_ns agree.
        outcomes = []
        for workers in (0, 1, 2):
            with ParallelRunner(workers) as runner:
                results = runner.run_cells(_make_cells("exec-wc"))
            outcomes.append([_fields(r) for r in results])
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert all(r["depth"] > 0 and r["machine"] for r in outcomes[0])


class TestRunCells:
    def test_results_in_submission_order(self):
        with ParallelRunner(2) as runner:
            results = runner.run_cells(_make_cells("exec-order", repeats=6))
        assert [r.index for r in results] == list(range(6))
        assert [r.label for r in results] == [f"kuw/{i}" for i in range(6)]

    def test_empty_cell_list(self):
        with ParallelRunner(1) as runner:
            assert runner.run_cells([]) == []

    def test_machine_costs_reported(self):
        with ParallelRunner(1) as runner:
            (result,) = runner.run_cells(_make_cells("exec-costs", repeats=1))
        assert result.depth > 0
        assert result.work > 0
        assert result.wall_ns > 0

    def test_mixed_functions_and_options(self):
        seeds = spawn_seeds("exec-mixed", 2)
        cells = [
            Cell(instance=_INSTANCE, fn=karp_upfal_wigderson, seed=seeds[0]),
            Cell(instance=_INSTANCE, fn=greedy_mis, seed=seeds[1]),
        ]
        with ParallelRunner(2) as runner:
            kuw_res, greedy_res = runner.run_cells(cells)
        assert kuw_res.mis_size > 0
        assert greedy_res.mis_size > 0
        assert kuw_res.num_rounds >= 1

    def test_in_process_accepts_closures(self):
        # No pickling in-process: a closure is a fine cell function.
        calls = []

        def solve(H, seed, **options):
            calls.append(seed)
            return greedy_mis(H, seed, **options)

        with ParallelRunner(0) as runner:
            (result,) = runner.run_cells([Cell(instance=_INSTANCE, fn=solve, seed=3)])
        assert calls == [3] and result.mis_size > 0

    @pytest.mark.parametrize("workers", [0, 1])
    def test_failing_cell_fails_only_itself(self, workers):
        cells = _make_cells("exec-fail", repeats=3)
        cells[1] = Cell(instance=_INSTANCE, fn=_raise, seed=0)
        with ParallelRunner(workers) as runner:
            outcomes = runner.cell_outcomes(cells)
            with pytest.raises(ValueError, match="solver exploded"):
                runner.run_cells(cells)
        assert [type(o).__name__ for o in outcomes] == ["CellResult", "ValueError", "CellResult"]

    def test_exception_that_cannot_cross_back_keeps_the_pool(self):
        cells = [
            Cell(instance=_INSTANCE, fn=_raise_keyword_error, seed=0),
            *_make_cells("exec-odd", repeats=1),
        ]
        with ParallelRunner(1) as runner:
            failed, ok = runner.cell_outcomes(cells)
        assert isinstance(failed, RuntimeError)
        assert "_KeywordError: odd exception" in str(failed)
        assert ok.mis_size > 0

    def test_lambda_function_rejected_with_clear_error(self):
        cells = [Cell(instance=_INSTANCE, fn=lambda H, s, **kw: None, seed=0)]
        with ParallelRunner(1) as runner:
            with pytest.raises(TypeError, match="picklable"):
                runner.run_cells(cells)


def _square(x: int) -> int:
    return x * x


class TestMapTasks:
    def test_results_in_item_order(self):
        with ParallelRunner(2) as runner:
            assert runner.map_tasks(_square, list(range(8))) == [
                i * i for i in range(8)
            ]

    def test_in_process_runs_closures_in_order(self):
        offset = 10
        with ParallelRunner(0) as runner:
            assert runner.map_tasks(lambda x: x + offset, [1, 2, 3]) == [11, 12, 13]

    def test_empty_items(self):
        with ParallelRunner(1) as runner:
            assert runner.map_tasks(_square, []) == []

    def test_lambda_rejected_with_clear_error(self):
        with ParallelRunner(1) as runner:
            with pytest.raises(TypeError, match="picklable"):
                runner.map_tasks(lambda x: x, [1])


def _count_and_square(x: int) -> int:
    from repro.obs import metrics as obs_metrics

    obs_metrics.inc("test/chunked_calls")
    return x * x


class TestMapTasksChunking:
    def test_fixed_chunksize_preserves_item_order(self):
        from repro.obs.metrics import isolated_registry

        with ParallelRunner(2) as runner, isolated_registry() as reg:
            got = runner.map_tasks(_square, list(range(37)), chunksize=5)
            snap = reg.snapshot()
        assert got == [i * i for i in range(37)]
        assert snap["counters"]["exec/chunks_dispatched"] == 8  # ceil(37/5)
        assert snap["counters"]["exec/tasks_done"] == 37
        assert snap["gauges"]["exec/chunk_size"] == 5

    def test_auto_chunks_large_grids(self):
        from repro.obs.metrics import isolated_registry

        n = 200
        with ParallelRunner(2) as runner, isolated_registry() as reg:
            got = runner.map_tasks(_square, list(range(n)), chunksize="auto")
            snap = reg.snapshot()
        assert got == [i * i for i in range(n)]
        counters = snap["counters"]
        assert counters["exec/tasks_done"] == n
        # The probe runs singly, the remainder in measured-size chunks.
        assert counters["exec/chunks_dispatched"] >= 1
        assert snap["gauges"]["exec/chunk_size"] >= 1

    def test_auto_skips_chunking_on_small_grids(self):
        from repro.obs.metrics import isolated_registry

        with ParallelRunner(2) as runner, isolated_registry() as reg:
            got = runner.map_tasks(_square, list(range(4)), chunksize="auto")
            snap = reg.snapshot()
        assert got == [0, 1, 4, 9]
        assert "exec/chunks_dispatched" not in snap["counters"]

    def test_chunked_metrics_round_trip(self):
        # Counters inc'd inside chunked workers merge into the parent
        # registry exactly once per call, same as singly-dispatched runs.
        from repro.obs.metrics import isolated_registry

        with ParallelRunner(2) as runner, isolated_registry() as reg:
            runner.map_tasks(_count_and_square, list(range(24)), chunksize=6)
            snap = reg.snapshot()
        assert snap["counters"]["test/chunked_calls"] == 24

    def test_invalid_chunksize_rejected(self):
        with ParallelRunner(1) as runner:
            with pytest.raises(ValueError, match="chunksize"):
                runner.map_tasks(_square, [1, 2], chunksize=0)
            with pytest.raises(ValueError, match="chunksize"):
                runner.map_tasks(_square, [1, 2], chunksize="huge")


class TestLifecycle:
    def test_owned_pool_closed_on_exit(self):
        with ParallelRunner(1) as runner:
            assert not runner.closed
        assert runner.closed

    def test_run_after_close_raises(self):
        runner = ParallelRunner(1)
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.run_cells(_make_cells("exec-closed", repeats=1))

    def test_in_process_run_after_close_raises(self):
        runner = ParallelRunner(0)
        runner.close()
        assert runner.closed and runner.workers == 0
        with pytest.raises(RuntimeError, match="closed"):
            runner.run_cells(_make_cells("exec-closed", repeats=1))
        with pytest.raises(RuntimeError, match="closed"):
            runner.map_tasks(_square, [1])

    def test_close_idempotent(self):
        runner = ParallelRunner(1)
        runner.close()
        runner.close()

    def test_repr_shows_state(self):
        runner = ParallelRunner(2)
        assert "workers=2" in repr(runner)
        runner.close()
        assert "closed" in repr(runner)


class TestFailureContainment:
    def test_worker_crash_leaves_no_shared_memory(self):
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm on this platform")
        before = set(shm_dir.iterdir())
        cells = [Cell(instance=_INSTANCE, fn=_crash, seed=0)]
        with ParallelRunner(1) as runner:
            with pytest.raises(BrokenProcessPool):
                runner.run_cells(cells)
        leaked = {p for p in set(shm_dir.iterdir()) - before if p.name.startswith("psm_")}
        assert leaked == set()

    def test_pool_usable_error_reported_per_run(self):
        # A crashed pool is broken for good; a fresh runner works fine.
        with ParallelRunner(1) as runner:
            with pytest.raises(BrokenProcessPool):
                runner.run_cells([Cell(instance=_INSTANCE, fn=_crash, seed=0)])
        with ParallelRunner(1) as runner:
            results = runner.run_cells(_make_cells("exec-recover", repeats=1))
        assert results[0].mis_size > 0


class TestAmbientRunner:
    def test_default_is_none(self):
        assert current_runner() is None

    def test_use_runner_installs_and_restores(self):
        with ParallelRunner(1) as runner:
            with use_runner(runner) as installed:
                assert installed is runner
                assert current_runner() is runner
            assert current_runner() is None

    def test_nesting(self):
        with ParallelRunner(1) as outer, ParallelRunner(1) as inner:
            with use_runner(outer):
                with use_runner(inner):
                    assert current_runner() is inner
                assert current_runner() is outer
