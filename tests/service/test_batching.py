"""MicroBatcher: coalescing, admission control, deadlines at dispatch."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import metrics
from repro.service.batching import MicroBatcher, QueueFull, Waiter


def _waiter(request_id: str = "r", expires_at: float | None = None) -> Waiter:
    return Waiter(
        request_id=request_id,
        future=asyncio.get_running_loop().create_future(),
        expires_at=expires_at,
        t_arrival_ns=0,
    )


def _run(coro):
    return asyncio.run(coro)


class TestSubmit:
    def test_first_submit_builds_work_once(self):
        async def main():
            batcher = MicroBatcher()
            built = []
            coalesced = batcher.submit(("h", "bl", 0), _waiter("a"), lambda: built.append(1))
            assert coalesced is False
            assert built == [1]
            assert batcher.depth == 1
            assert batcher.pending_requests == 1

        _run(main())

    def test_duplicate_coalesces_without_new_work(self):
        async def main():
            with metrics.isolated_registry() as registry:
                batcher = MicroBatcher()
                built = []
                key = ("h", "bl", 0)
                batcher.submit(key, _waiter("a"), lambda: built.append(1) or "work")
                w2 = _waiter("b")
                assert batcher.submit(key, w2, lambda: built.append(2)) is True
                assert w2.coalesced is True
                assert built == [1]  # second make_work never called
                assert batcher.depth == 1
                assert batcher.pending_requests == 2
                counters = registry.snapshot()["counters"]
            assert counters["service/coalesced"] == 1

        _run(main())

    def test_distinct_keys_do_not_coalesce(self):
        async def main():
            batcher = MicroBatcher()
            batcher.submit(("h", "bl", 0), _waiter(), lambda: "w0")
            batcher.submit(("h", "bl", 1), _waiter(), lambda: "w1")
            batcher.submit(("g", "bl", 0), _waiter(), lambda: "w2")
            assert batcher.depth == 3

        _run(main())

    def test_inflight_cell_still_coalesces(self):
        async def main():
            batcher = MicroBatcher()
            key = ("h", "bl", 0)
            batcher.submit(key, _waiter("a"), lambda: "work")
            cells, _ = await batcher.take_batch()
            assert batcher.inflight == 1 and batcher.pending_requests == 0
            late = _waiter("late")
            assert batcher.submit(key, late, lambda: "never") is True
            # in-flight coalescers don't count against admission
            assert batcher.pending_requests == 0
            waiters = batcher.resolve(cells[0])
            assert [w.request_id for w in waiters] == ["a", "late"]
            assert batcher.inflight == 0

        _run(main())


class TestAdmission:
    def test_queue_full_past_bound(self):
        async def main():
            with metrics.isolated_registry() as registry:
                batcher = MicroBatcher(max_pending=2)
                batcher.submit(("h", "bl", 0), _waiter(), lambda: "w")
                batcher.submit(("h", "bl", 1), _waiter(), lambda: "w")
                with pytest.raises(QueueFull, match="limit 2"):
                    batcher.submit(("h", "bl", 2), _waiter(), lambda: "w")
                # rejection left no partial state behind
                assert batcher.depth == 2 and batcher.pending_requests == 2
                counters = registry.snapshot()["counters"]
            assert counters["service/rejected"] == 1

        _run(main())

    def test_coalescing_bypasses_the_bound(self):
        async def main():
            batcher = MicroBatcher(max_pending=1)
            key = ("h", "bl", 0)
            batcher.submit(key, _waiter(), lambda: "w")
            # a duplicate of a queued cell is absorbed even at the bound
            assert batcher.submit(key, _waiter(), lambda: "w") is True

        _run(main())

    @pytest.mark.parametrize("kwargs", [{"max_batch": 0}, {"max_pending": 0}])
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(**kwargs)


class TestTakeBatch:
    def test_moves_cells_inflight(self):
        async def main():
            batcher = MicroBatcher()
            batcher.submit(("h", "bl", 0), _waiter(), lambda: "w0")
            batcher.submit(("h", "bl", 1), _waiter(), lambda: "w1")
            cells, expired = await batcher.take_batch()
            assert [c.work for c in cells] == ["w0", "w1"]
            assert expired == []
            assert batcher.depth == 0
            assert batcher.inflight == 2
            assert batcher.pending_requests == 0

        _run(main())

    def test_max_batch_leaves_remainder_queued(self):
        async def main():
            batcher = MicroBatcher(max_batch=2)
            for seed in range(5):
                batcher.submit(("h", "bl", seed), _waiter(), lambda: "w")
            first, _ = await batcher.take_batch()
            assert len(first) == 2 and batcher.depth == 3
            # the event stays set, so the next take does not block
            second, _ = await asyncio.wait_for(batcher.take_batch(), timeout=1)
            third, _ = await asyncio.wait_for(batcher.take_batch(), timeout=1)
            assert len(second) == 2 and len(third) == 1
            assert batcher.depth == 0

        _run(main())

    def test_waits_for_work(self):
        async def main():
            batcher = MicroBatcher()
            take = asyncio.create_task(batcher.take_batch())
            await asyncio.sleep(0.01)
            assert not take.done()
            batcher.submit(("h", "bl", 0), _waiter(), lambda: "w")
            cells, _ = await asyncio.wait_for(take, timeout=1)
            assert len(cells) == 1

        _run(main())


class TestDeadlines:
    def test_expired_waiters_returned_not_dispatched(self):
        async def main():
            with metrics.isolated_registry() as registry:
                batcher = MicroBatcher()
                key = ("h", "bl", 0)
                batcher.submit(key, _waiter("live", expires_at=100.0), lambda: "w")
                batcher.submit(key, _waiter("stale", expires_at=1.0), lambda: "w")
                cells, expired = await batcher.take_batch(clock=lambda: 50.0)
                assert [w.request_id for w in expired] == ["stale"]
                assert len(cells) == 1
                assert [w.request_id for w in cells[0].waiters] == ["live"]
                counters = registry.snapshot()["counters"]
            assert counters["service/deadline_expired"] == 1

        _run(main())

    def test_all_expired_cell_is_dropped(self):
        async def main():
            with metrics.isolated_registry() as registry:
                batcher = MicroBatcher()
                batcher.submit(("h", "bl", 0), _waiter("s1", expires_at=1.0), lambda: "w")
                batcher.submit(("h", "bl", 1), _waiter("ok", expires_at=None), lambda: "w")
                cells, expired = await batcher.take_batch(clock=lambda: 50.0)
                # the dead cell never reaches dispatch or in-flight state
                assert [w.request_id for w in expired] == ["s1"]
                assert [w.request_id for c in cells for w in c.waiters] == ["ok"]
                assert batcher.inflight == 1
                counters = registry.snapshot()["counters"]
            assert counters["service/cells_expired"] == 1

        _run(main())

    def test_no_deadline_never_expires(self):
        async def main():
            batcher = MicroBatcher()
            batcher.submit(("h", "bl", 0), _waiter(expires_at=None), lambda: "w")
            cells, expired = await batcher.take_batch(clock=lambda: 1e12)
            assert len(cells) == 1 and expired == []

        _run(main())
